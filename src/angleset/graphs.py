"""Finite simple undirected graphs: parsing, named diagram families, structural
predicates, and Pruefer decoding of labeled trees.

Vertices are labeled 1..n throughout the public API. Matrices returned by
:func:`adjacency_matrix` use the usual 0-based indexing, so vertex ``i``
corresponds to row ``i - 1``.
"""

from __future__ import annotations

import heapq
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "MAX_VERTICES",
    "NamedFamily",
    "adjacency_matrix",
    "check_vertex_count",
    "component_vertex_sets",
    "edge_key",
    "generate_named",
    "is_connected",
    "is_tree",
    "parse_edge_list",
    "parse_named_spec",
    "tree_from_pruefer",
]


class GraphError(ValueError):
    """Malformed graph input or a violated structural constraint."""


# Dense n x n matrices of this size take 32 MB each. The command line builds
# no larger graph, and load_configuration reads no larger document.
MAX_VERTICES = 2000


def check_vertex_count(n: int) -> None:
    """:class:`GraphError` if ``n`` vertices are more than ``MAX_VERTICES``."""
    if n > MAX_VERTICES:
        raise GraphError(f"graph has {n} vertices, above the limit of {MAX_VERTICES}")


def edge_key(i, j) -> tuple[int, int]:
    """The canonical key ``(min, max)`` of the vertex pair ``i``, ``j``.

    Labels must be Python or numpy integers, not ``bool``; they come back as
    Python ints. Anything else raises :class:`GraphError`.
    """
    if type(i) is not int or type(j) is not int:
        i = _integer(i, "vertex labels must be integers")
        j = _integer(j, "vertex labels must be integers")
    return (i, j) if i < j else (j, i)


def _integer(value, message: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer other
    than ``bool``; otherwise :class:`GraphError` with ``message``."""
    # bool is an int subclass, so operator.index(True) would be 1.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GraphError(message)


def _integer_pair(e: tuple) -> tuple[int, int]:
    """The labels of the edge ``e`` as Python ints, by :func:`_integer`."""
    message = f"edge {e!r} has a vertex label that is not an integer"
    return _integer(e[0], message), _integer(e[1], message)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``1..n``.

    Edges are stored canonically as pairs ``(i, j)`` with ``i < j``. Loops and
    parallel edges are rejected; vertices without incident edges are allowed.

    The vertex count and the edges' labels must be integers, not ``bool``;
    a numpy integer is stored as a Python int.

    A graph memoises three things it derives from its edges, each the first
    time it is needed: the edge index (``_edge_index``: the edges in one
    fixed order with their read-only 0-based endpoint arrays), the component
    roots (``_component_roots``, found by union-find over the edge set,
    which :func:`is_connected`, :func:`is_tree` and
    :func:`component_vertex_sets` read) and the adjacency spectrum
    (:func:`~angleset.spectra.graph_spectrum`, solved from the edge index).
    Each memo lives and dies with its ``Graph`` object. It keeps no
    neighbour sets: :func:`~angleset.classify.classify_structure` builds
    the only neighbour lists, for one call.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if type(self.n) is not int:
            object.__setattr__(self, "n", _integer(
                self.n, f"vertex count must be an integer, got {self.n!r}"))
        if self.n < 1:
            raise GraphError("vertex count must be at least 1")
        relabel = False
        for e in self.edges:
            i, j = e
            if type(i) is not int or type(j) is not int:
                i, j = _integer_pair(e)
                relabel = True
            if i == j:
                raise GraphError(f"loop edge {i}-{j}")
            if i > j:
                raise GraphError(f"edge ({i}, {j}) is not in canonical (min, max) order")
            if i < 1 or j > self.n:
                raise GraphError(f"edge {i}-{j} out of vertex range 1..{self.n}")
        if relabel:
            object.__setattr__(self, "edges", frozenset(map(_integer_pair, self.edges)))

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph from unordered vertex pairs.

        ``n`` defaults to the largest endpoint. Each pair goes through
        :func:`edge_key`, so labels must be integers. Duplicate edges (in
        either orientation) are a hard error, as are loops.
        """
        seen: set[tuple[int, int]] = set()
        top = 0
        for i, j in edges:
            e = edge_key(i, j)
            if e[0] == e[1]:
                raise GraphError(f"loop edge {e[0]}-{e[0]}")
            if e in seen:
                raise GraphError(f"duplicate edge {e[0]}-{e[1]}")
            seen.add(e)
            top = max(top, e[1])
        if n is None:
            n = max(top, 1)
        return cls(n, frozenset(seen))

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_index(self) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
        """Every edge once, in one fixed order, and the read-only 0-based
        endpoint arrays ``i < j`` aligned to it."""
        edges = list(self.edges)
        ends = np.fromiter(chain.from_iterable(edges), dtype=np.intp, count=2 * len(edges))
        ends -= 1
        ends.flags.writeable = False
        return edges, ends[0::2], ends[1::2]

    @cached_property
    def _component_roots(self) -> tuple[int, ...]:
        """Smallest member of each vertex's component, indexed by vertex
        (slot 0 holds 0), from :func:`_union_find_roots`."""
        return _union_find_roots(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix of ``g`` (symmetric, zero diagonal)."""
    _, i, j = g._edge_index
    a = np.zeros((g.n, g.n), dtype=int)
    a[i, j] = a[j, i] = 1
    return a


def _union_find_roots(g: Graph) -> tuple[int, ...]:
    """Smallest member of each vertex's component, indexed by vertex (slot 0
    holds 0).

    Union-find over the edge set, each union hanging the larger root under
    the smaller, so a root is always its component's least vertex. Call it
    through the memo ``g._component_roots``.
    """
    root = list(range(g.n + 1))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in g.edges:
        a, b = find(i), find(j)
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    return tuple(find(v) for v in range(g.n + 1))


def is_connected(g: Graph) -> bool:
    # Every root is its component's least vertex, so vertex 1 roots them all
    # exactly when one component holds every vertex.
    return max(g._component_roots) == 1


def is_tree(g: Graph) -> bool:
    """Connected and acyclic, i.e. connected with exactly ``n - 1`` edges."""
    return g.num_edges == g.n - 1 and is_connected(g)


def component_vertex_sets(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted ascending,
    ordered by smallest member. Together they partition ``1..n``."""
    members: dict[int, list[int]] = {}
    roots = g._component_roots
    for v in g.vertices:
        members.setdefault(roots[v], []).append(v)
    return [tuple(vs) for vs in members.values()]


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    An optional first line ``n <count>`` fixes the vertex count (allowing
    trailing isolated vertices); otherwise the largest endpoint wins. Every
    other non-empty line that does not start with ``#`` must be two integer
    labels ``i j``. Loops and duplicate edges are reported with their line
    number.
    """
    declared: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    allow_header = True
    max_label = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if allow_header and parts[0] == "n":
            if len(parts) != 2:
                raise GraphError(f"line {lineno}: header must be 'n <count>'")
            try:
                declared = int(parts[1])
            except ValueError:
                raise GraphError(
                    f"line {lineno}: header count {parts[1]!r} is not an integer"
                ) from None
            if declared < 1:
                raise GraphError(f"line {lineno}: vertex count must be at least 1")
            allow_header = False
            continue
        allow_header = False
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: vertex labels must be integers") from None
        if i < 1 or j < 1:
            raise GraphError(f"line {lineno}: vertex labels start at 1")
        if i == j:
            raise GraphError(f"line {lineno}: loop edge {i}-{j}")
        e = edge_key(i, j)
        if e in seen:
            raise GraphError(f"line {lineno}: duplicate edge {e[0]}-{e[1]}")
        seen.add(e)
        edges.append(e)
        max_label = max(max_label, e[1])
    if declared is None:
        if max_label == 0:
            raise GraphError(
                "empty edge list: give at least one edge or an 'n <count>' header"
            )
        declared = max_label
    elif max_label > declared:
        raise GraphError(
            f"edge endpoint {max_label} exceeds declared vertex count {declared}"
        )
    return Graph(declared, frozenset(edges))


# Sized families: their spec prefix (``A5``, ``C6``, ``K1,4``) and least size.
_SIZED = {"A": ("A", 1), "D": ("D", 4), "A~": ("A~", 2), "D~": ("D~", 4),
          "path": ("P", 1), "cycle": ("C", 3), "star": ("K1,", 1)}
_BY_PREFIX = {prefix: family for family, (prefix, _) in _SIZED.items()}

# The E-type trees as arm lengths (left, right, hung): a path of
# left + right + 1 vertices with an arm of ``hung`` vertices hung from vertex
# left + 1. Sorted, the arms are the tree's leg profile.
E_ARMS = {
    "E6": (2, 2, 1),
    "E7": (2, 3, 1),
    "E8": (2, 4, 1),
    "E~6": (2, 2, 2),
    "E~7": (3, 3, 1),
    "E~8": (2, 5, 1),
}


@dataclass(frozen=True)
class NamedFamily:
    """A named diagram family together with its size parameter.

    Sized families: ``A`` (n >= 1), ``D`` (n >= 4), ``A~`` (n >= 2),
    ``D~`` (n >= 4), plus the aliases ``path``, ``cycle``, ``star``.
    The ``E``-type families are fixed-size and take no parameter. A family
    with tag ``X~`` has ``size + 1`` vertices; the plain ones have ``size``.
    """

    family: str
    size: int | None = None

    def __post_init__(self) -> None:
        if self.family in _SIZED:
            least = _SIZED[self.family][1]
            if self.size is None:
                raise GraphError(f"family {self.family} needs a size parameter")
            if self.size < least:
                raise GraphError(
                    f"family {self.family} needs size >= {least}, got {self.size}"
                )
        elif self.family in E_ARMS:
            if self.size is not None:
                raise GraphError(f"family {self.family} takes no size parameter")
        else:
            raise GraphError(f"unknown family tag {self.family!r}")

    @property
    def vertex_count(self) -> int:
        """Number of vertices of the graph :func:`generate_named` builds."""
        if self.family in E_ARMS:
            return sum(E_ARMS[self.family]) + 1
        if self.family in ("A~", "D~", "star"):
            return self.size + 1
        return self.size


def parse_named_spec(text: str) -> NamedFamily:
    """Parse a family spec string such as ``A5``, ``D~4``, ``E~8``, ``C6``,
    ``P3`` or ``K1,4``."""
    s = text.strip()
    if s in E_ARMS:
        return NamedFamily(s)
    m = re.fullmatch(r"(.*?)(\d+)", s)
    if m is not None and m.group(1) in _BY_PREFIX:
        return NamedFamily(_BY_PREFIX[m.group(1)], int(m.group(2)))
    raise GraphError(
        f"unrecognized graph spec {text!r} "
        "(expected A<n>, D<n>, E6|E7|E8, A~<n>, D~<n>, E~6|E~7|E~8, C<n>, P<n> or K1,<m>)"
    )


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(v, v + 1) for v in range(1, n)]


def generate_named(spec: NamedFamily) -> Graph:
    """Construct the graph of a named family on vertices 1..n.

    Layout conventions: paths run 1-2-...-n; ``D`` attaches leaves 1 and 2 to
    vertex 3 followed by the path 3..n; an ``E``-type graph with arms
    ``E_ARMS[tag] = (left, right, hung)`` is the path 1..left+right+1 with the
    remaining vertices, in order, hung as one arm from vertex left+1;
    ``A~<k>`` is the cycle on k+1 vertices; ``D~<k>`` has a two-leaf fork at
    each end of a central path; stars put the center at vertex 1.
    """
    f, n = spec.family, spec.vertex_count
    if f in ("A", "path"):
        return Graph(n, frozenset(_path_edges(n)))
    if f == "D":
        edges = [(1, 3), (2, 3)] + _path_edges(n)[2:]
        return Graph(n, frozenset(edges))
    if f in E_ARMS:
        left, right, _ = E_ARMS[f]
        spine = left + right + 1
        arm = [left + 1, *range(spine + 1, n + 1)]
        return Graph(n, frozenset(_path_edges(spine) + list(zip(arm, arm[1:]))))
    if f in ("A~", "cycle"):
        return Graph(n, frozenset(_path_edges(n) + [(1, n)]))
    if f == "D~":
        edges = [(1, 3), (2, 3)] + _path_edges(n - 2)[2:] + [(n - 2, n - 1), (n - 2, n)]
        return Graph(n, frozenset(edges))
    if f == "star":
        return Graph(n, frozenset((1, v) for v in range(2, n + 1)))
    raise GraphError(f"unknown family tag {f!r}")  # pragma: no cover


def tree_from_pruefer(n: int, seq: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into its labeled tree on ``1..n``.

    The decoding is the standard bijection: sequences of length ``n - 2`` over
    ``1..n`` correspond one-to-one to labeled trees.
    """
    if n < 2:
        raise GraphError("Pruefer decoding needs n >= 2")
    if len(seq) != n - 2:
        raise GraphError(f"Pruefer sequence for n={n} must have length {n - 2}")
    degree = [1] * (n + 1)
    for v in seq:
        if not 1 <= v <= n:
            raise GraphError(f"Pruefer entry {v} out of range 1..{n}")
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v) if u < v else (v, u))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((u, w) if u < w else (w, u))
    return Graph(n, frozenset(edges))
