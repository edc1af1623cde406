"""Classification of graphs by spectral index.

Two independent routes are provided. :func:`classify_structure` recognizes,
per connected component, the exact shapes whose index is at most 2: paths,
single-branch trees with the right leg profile, double-fork trees, stars and
cycles. :func:`classify_index` simply compares the computed index against 2.
The structural route is exact combinatorics and serves as ground truth; the
numeric route cross-checks it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .graphs import Graph, component_vertex_sets, induced_subgraph
from .spectra import graph_index

__all__ = [
    "ComponentClass",
    "GraphClass",
    "INDEX_TOL",
    "IndexClass",
    "IndexKind",
    "classify_index",
    "classify_structure",
]

INDEX_TOL = 1e-9

_DYNKIN = frozenset({"A", "D", "E6", "E7", "E8"})
_EXTENDED = frozenset({"A~", "D~", "E~6", "E~7", "E~8"})

# Leg profiles (sorted arm lengths from the unique degree-3 vertex) of the
# E-type shapes. Profiles (1, 1, k) are D-type and handled separately.
_TRIDENTS = {
    (1, 2, 2): ("E6", 6),
    (1, 2, 3): ("E7", 7),
    (1, 2, 4): ("E8", 8),
    (2, 2, 2): ("E~6", 6),
    (1, 3, 3): ("E~7", 7),
    (1, 2, 5): ("E~8", 8),
}


class IndexKind(enum.Enum):
    SUBCRITICAL = "subcritical"  # index < 2
    CRITICAL = "critical"  # index = 2
    SUPERCRITICAL = "supercritical"  # index > 2


@dataclass(frozen=True)
class IndexClass:
    """Numeric trichotomy of the index against 2, within ``tol``."""

    kind: IndexKind
    index: float


@dataclass(frozen=True)
class ComponentClass:
    """Shape label of one connected component.

    ``family`` is a family tag (``A``, ``D``, ``E6``..``E8``, their tilde
    versions) or ``"supercritical"`` for everything else. ``size`` is the
    family subscript where applicable. ``vertices`` holds the component's
    labels in the original graph.
    """

    family: str
    size: int | None
    vertices: tuple[int, ...]

    @property
    def is_dynkin(self) -> bool:
        return self.family in _DYNKIN

    @property
    def is_extended(self) -> bool:
        return self.family in _EXTENDED

    @property
    def label(self) -> str:
        if self.family == "supercritical":
            return "supercritical"
        if self.family in ("A", "D", "A~", "D~"):
            return f"{self.family}{self.size}"
        return self.family


@dataclass(frozen=True)
class GraphClass:
    """Per-component shape labels for a whole graph."""

    components: tuple[ComponentClass, ...]

    @property
    def predicted_index_kind(self) -> IndexKind:
        """Index class implied by the shapes: any unrecognized component
        forces supercritical, any tilde component forces critical, and a
        graph of plain Dynkin components is subcritical."""
        if any(c.family == "supercritical" for c in self.components):
            return IndexKind.SUPERCRITICAL
        if any(c.is_extended for c in self.components):
            return IndexKind.CRITICAL
        return IndexKind.SUBCRITICAL


def _arm(g: Graph, branch: int, first: int) -> tuple[int, int]:
    """Walk from ``branch`` through ``first`` along degree-2 vertices.

    Returns ``(length_in_edges, endpoint)`` where the endpoint is the first
    vertex that is not a through-vertex (a leaf or another branch vertex).
    """
    prev, cur = branch, first
    length = 1
    while g.degree(cur) == 2:
        nxt = next(u for u in g.neighbors(cur) if u != prev)
        prev, cur = cur, nxt
        length += 1
    return length, cur


def _component_shape(g: Graph) -> tuple[str, int | None]:
    """Shape of a connected graph as ``(family, size)``."""
    n, m = g.n, g.num_edges
    degrees = [g.degree(v) for v in g.vertices]
    if m != n - 1:
        # Connected with an extra edge: only the plain cycle stays at index 2.
        if all(d == 2 for d in degrees):
            return "A~", n - 1
        return "supercritical", None
    branches = [v for v in g.vertices if g.degree(v) >= 3]
    if not branches:
        return "A", n
    if len(branches) == 1:
        b = branches[0]
        arms = sorted(_arm(g, b, u)[0] for u in g.neighbors(b))
        if len(arms) == 3:
            if arms[0] == arms[1] == 1:
                return "D", arms[2] + 3
            hit = _TRIDENTS.get(tuple(arms))
            if hit is not None:
                return hit
        elif len(arms) == 4 and arms == [1, 1, 1, 1]:
            return "D~", 4
        return "supercritical", None
    if len(branches) == 2 and all(g.degree(b) == 3 for b in branches):
        for b in branches:
            outward = []
            for u in g.neighbors(b):
                length, end = _arm(g, b, u)
                if end not in branches:
                    outward.append(length)
            if sorted(outward) != [1, 1]:
                return "supercritical", None
        return "D~", n - 1
    return "supercritical", None


def classify_structure(g: Graph) -> GraphClass:
    """Label every connected component by exact shape recognition."""
    labeled = []
    for verts in component_vertex_sets(g):
        family, size = _component_shape(induced_subgraph(g, verts))
        labeled.append(ComponentClass(family, size, verts))
    return GraphClass(tuple(labeled))


def classify_index(g: Graph, tol: float = INDEX_TOL) -> IndexClass:
    """Numeric trichotomy: compare the computed index against 2 within ``tol``."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol}")
    r = graph_index(g)
    if r > 2.0 + tol:
        kind = IndexKind.SUPERCRITICAL
    elif r < 2.0 - tol:
        kind = IndexKind.SUBCRITICAL
    else:
        kind = IndexKind.CRITICAL
    return IndexClass(kind, r)
