"""Classification of graphs by spectral index.

Two independent routes are provided. :func:`classify_structure` recognizes,
per connected component, the exact shapes whose index is at most 2: paths,
single-branch trees with the right leg profile, double-fork trees, stars and
cycles. :func:`classify_index` simply compares the computed index against 2.
The structural route is exact combinatorics (Smith's classification) and
serves as ground truth, which ``trichotomy`` reads alone; the tests, not the
runtime, check the numeric route against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .graphs import E_ARMS, Graph, component_vertex_sets
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

_EXTENDED = frozenset({"A~", "D~", "E~6", "E~7", "E~8"})

# Leg profiles (sorted arm lengths from the unique degree-3 vertex) of the
# E-type shapes. Profiles (1, 1, k) are D-type and handled separately.
_TRIDENTS = {tuple(sorted(arms)): (tag, int(tag[-1])) for tag, arms in E_ARMS.items()}

_E_COXETER = {"E6": 12, "E7": 18, "E8": 30}


class IndexKind(enum.Enum):
    SUBCRITICAL = "subcritical"  # index < 2
    CRITICAL = "critical"  # index = 2
    SUPERCRITICAL = "supercritical"  # index > 2


@dataclass(frozen=True)
class IndexClass:
    """Numeric trichotomy of the index against 2, within ``INDEX_TOL``."""

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
    def is_extended(self) -> bool:
        return self.family in _EXTENDED

    @property
    def closed_form(self) -> str | None:
        """Exact admissible-interval endpoint, ``None`` if unrecognized: a
        Dynkin shape with Coxeter number h has 1/(4cos^2(pi/h)), the n-cycle
        that of h = n, and every other extended shape 1/4."""
        if self.family in ("A", "A~"):
            h = self.size + 1
        elif self.family == "D":
            h = 2 * (self.size - 1)
        elif self.family in _E_COXETER:
            h = _E_COXETER[self.family]
        elif self.is_extended:
            return "1/4"
        else:
            return None
        return f"1/(4cos^2(pi/{h}))"

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


def _arm(nbrs: list[list[int]], degree: list[int], branch: int,
         first: int) -> tuple[int, int]:
    """Walk from ``branch`` through ``first`` along degree-2 vertices, given
    the neighbour lists and degrees indexed by vertex.

    Returns ``(length_in_edges, endpoint)`` where the endpoint is the first
    vertex that is not a through-vertex (a leaf or another branch vertex).
    """
    prev, cur = branch, first
    length = 1
    while degree[cur] == 2:
        nxt = next(u for u in nbrs[cur] if u != prev)
        prev, cur = cur, nxt
        length += 1
    return length, cur


def _component_shape(nbrs: list[list[int]], degree: list[int],
                     verts: tuple[int, ...]) -> tuple[str, int | None]:
    """Shape as ``(family, size)`` of the connected component on ``verts``,
    given the whole graph's neighbour lists and degrees indexed by vertex."""
    n, m = len(verts), sum(degree[v] for v in verts) // 2
    if m != n - 1:
        # Connected with an extra edge: only the plain cycle stays at index 2.
        if all(degree[v] == 2 for v in verts):
            return "A~", n - 1
        return "supercritical", None
    branches = [v for v in verts if degree[v] >= 3]
    if not branches:
        return "A", n
    if len(branches) == 1:
        b = branches[0]
        arms = sorted(_arm(nbrs, degree, b, u)[0] for u in nbrs[b])
        if len(arms) == 3:
            if arms[0] == arms[1] == 1:
                return "D", arms[2] + 3
            hit = _TRIDENTS.get(tuple(arms))
            if hit is not None:
                return hit
        elif len(arms) == 4 and arms == [1, 1, 1, 1]:
            return "D~", 4
        return "supercritical", None
    if len(branches) == 2 and all(degree[b] == 3 for b in branches):
        for b in branches:
            outward = []
            for u in nbrs[b]:
                length, end = _arm(nbrs, degree, b, u)
                if end not in branches:
                    outward.append(length)
            if sorted(outward) != [1, 1]:
                return "supercritical", None
        return "D~", n - 1
    return "supercritical", None


def classify_structure(g: Graph) -> GraphClass:
    """Label every connected component by exact shape recognition, each
    shaped in place, with no subgraph copy, from neighbour lists built for
    this call and dropped with it."""
    nbrs: list[list[int]] = [[] for _ in range(g.n + 1)]  # slot 0: vertex 0
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    degree = [len(s) for s in nbrs]
    return GraphClass(tuple(
        ComponentClass(*_component_shape(nbrs, degree, verts), verts)
        for verts in component_vertex_sets(g)
    ))


def classify_index(g: Graph) -> IndexClass:
    """Numeric trichotomy: the computed index counts as critical within
    ``INDEX_TOL`` of 2, and as sub- or supercritical beyond it."""
    r = graph_index(g)
    if r > 2.0 + INDEX_TOL:
        kind = IndexKind.SUPERCRITICAL
    elif r < 2.0 - INDEX_TOL:
        kind = IndexKind.SUBCRITICAL
    else:
        kind = IndexKind.CRITICAL
    return IndexClass(kind, r)
