"""Span ledger of a traced benchmark run.

Turns the spans a :class:`repro.obs.Recorder` collected into per-layer
self times and checks that they account for every operation:

* a span's **self time** is its duration minus the part of its interval
  that its direct children cover;
* every span belongs to one **layer**, named after the package whose
  public call it times (benchmark spans are named ``<layer>.<call>``,
  the program's own spans map through :data:`_PROGRAM_LAYERS`);
* **conservation**: for each operation span, the self times of all its
  descendants plus the operation's own self time (the *unattributed*
  residual: benchmark glue between calls) equal the operation's
  duration.
"""

from __future__ import annotations

from collections import defaultdict

#: layers a span can be attributed to, in pipeline order
LAYERS = (
    "sparse",
    "kernels",
    "fusion",
    "schedule",
    "runtime",
    "solvers",
    "obs",
    "analytics",
    "baselines",
)

#: the program's own spans (see docs/observability.md), by name prefix
_PROGRAM_LAYERS = {
    "inspector": "fusion",
    "ico": "schedule",
    "lbc": "schedule",
    "plan": "runtime",
    "executor": "runtime",
    "pcg": "solvers",
    "gs": "solvers",
    "sanitize": "obs",
    "locality": "analytics",
}

#: exact names that do not follow their prefix
_EXACT_LAYERS = {"inspector.cache_lookup": "schedule"}


def layer_of(name: str) -> str:
    """Layer of span *name*; ``"other"`` when no rule names it."""
    if name in _EXACT_LAYERS:
        return _EXACT_LAYERS[name]
    head = name.split(".", 1)[0]
    if head in LAYERS:
        return head
    return _PROGRAM_LAYERS.get(head, "other")


def _covered(parent, children) -> float:
    """Seconds of *parent*'s interval covered by the union of *children*."""
    covered = 0.0
    end = parent.t_start
    for c in sorted(children, key=lambda s: s.t_start):
        lo = max(c.t_start, end)
        hi = min(c.t_end, parent.t_end)
        if hi > lo:
            covered += hi - lo
            end = hi
    return covered


class Ledger:
    """Index over the closed spans of one recorder."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.span_id: s for s in self.spans}
        self.children = defaultdict(list)
        for s in self.spans:
            if s.parent_id is not None:
                self.children[s.parent_id].append(s)
        self._roots = {}

    # -- structure -----------------------------------------------------
    def root_of(self, span):
        """The top-level span *span* nests under (itself when top-level)."""
        key = span.span_id
        if key not in self._roots:
            s = span
            while s.parent_id is not None and s.parent_id in self.by_id:
                s = self.by_id[s.parent_id]
            self._roots[key] = s
        return self._roots[key]

    def has_ancestor(self, span, name: str) -> bool:
        s = span
        while s.parent_id is not None and s.parent_id in self.by_id:
            s = self.by_id[s.parent_id]
            if s.name == name:
                return True
        return False

    def roots(self, kind: str) -> list:
        """Top-level spans named *kind* (``op``, ``setup``, ``probe``...)."""
        return [s for s in self.spans if s.parent_id is None and s.name == kind]

    def select(self, name: str, *, root=None, within: str | None = None):
        """Spans called *name*, optionally under a top-level span whose
        name is (one of) *root* and/or below an ancestor called *within*."""
        roots = (root,) if isinstance(root, str) else root
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            if roots is not None and self.root_of(s).name not in roots:
                continue
            if within is not None and not self.has_ancestor(s, within):
                continue
            out.append(s)
        return out

    def descendants(self, span) -> list:
        out, todo = [], list(self.children[span.span_id])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children[s.span_id])
        return out

    # -- accounting ----------------------------------------------------
    def self_seconds(self, span) -> float:
        return span.seconds - _covered(span, self.children[span.span_id])

    def op_account(self, op) -> tuple[dict[str, float], float, float]:
        """Per-layer self seconds under *op*, its unattributed residual,
        and the conservation error ``|duration - (layers + residual)|``."""
        layers: dict[str, float] = defaultdict(float)
        for s in self.descendants(op):
            layers[layer_of(s.name)] += self.self_seconds(s)
        residual = self.self_seconds(op)
        err = abs(op.seconds - (sum(layers.values()) + residual))
        return dict(layers), residual, err


def mean_ms(spans) -> float:
    """Mean duration of *spans* in milliseconds (0.0 when none)."""
    return 1e3 * sum(s.seconds for s in spans) / len(spans) if spans else 0.0
