"""Finite simple undirected graphs: parsing, named diagram families, structural
predicates, and exhaustive labeled-tree enumeration.

Vertices are labeled 1..n throughout the public API. Matrices returned by
:func:`adjacency_matrix` use the usual 0-based indexing, so vertex ``i``
corresponds to row ``i - 1``.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "NamedFamily",
    "adjacency_matrix",
    "component_vertex_sets",
    "components",
    "enumerate_trees",
    "generate_named",
    "induced_subgraph",
    "is_bipartite",
    "is_connected",
    "is_tree",
    "parse_edge_list",
    "parse_named_spec",
    "tree_from_pruefer",
]


class GraphError(ValueError):
    """Malformed graph input or a violated structural constraint."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices ``1..n``.

    Edges are stored canonically as pairs ``(i, j)`` with ``i < j``. Loops and
    parallel edges are rejected; vertices without incident edges are allowed.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError("vertex count must be at least 1")
        for i, j in self.edges:
            if i == j:
                raise GraphError(f"loop edge {i}-{j}")
            if i > j:
                raise GraphError(f"edge ({i}, {j}) is not in canonical (min, max) order")
            if i < 1 or j > self.n:
                raise GraphError(f"edge {i}-{j} out of vertex range 1..{self.n}")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Graph":
        """Build a graph from unordered vertex pairs.

        ``n`` defaults to the largest endpoint. Duplicate edges (in either
        orientation) are a hard error, as are loops.
        """
        seen: set[tuple[int, int]] = set()
        top = 0
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise GraphError(f"loop edge {i}-{i}")
            e = (i, j) if i < j else (j, i)
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
    def _adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n + 1)]
        for i, j in self.edges:
            nbrs[i].add(j)
            nbrs[j].add(i)
        return tuple(frozenset(s) for s in nbrs)

    def neighbors(self, v: int) -> frozenset[int]:
        if not 1 <= v <= self.n:
            raise GraphError(f"vertex {v} out of range 1..{self.n}")
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, i: int, j: int) -> bool:
        return ((i, j) if i < j else (j, i)) in self.edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Dense 0/1 adjacency matrix of ``g`` (symmetric, zero diagonal)."""
    a = np.zeros((g.n, g.n), dtype=int)
    for i, j in g.edges:
        a[i - 1, j - 1] = 1
        a[j - 1, i - 1] = 1
    return a


def _component_roots(g: Graph) -> list[int]:
    """Smallest member of each vertex's component, indexed by vertex (slot 0
    unused).

    Union-find over the edge set, each union hanging the larger root under
    the smaller, so a root is always its component's least vertex. It leaves
    the per-vertex neighbour sets of ``g`` unbuilt.
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
    return [find(v) for v in range(g.n + 1)]


def is_connected(g: Graph) -> bool:
    return all(r == 1 for r in _component_roots(g)[1:])


def is_tree(g: Graph) -> bool:
    """Connected and acyclic, i.e. connected with exactly ``n - 1`` edges."""
    return g.num_edges == g.n - 1 and is_connected(g)


def is_bipartite(g: Graph) -> bool:
    color: dict[int, int] = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return False
    return True


def component_vertex_sets(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted ascending,
    ordered by smallest member. Together they partition ``1..n``."""
    members: dict[int, list[int]] = {}
    roots = _component_roots(g)
    for v in g.vertices:
        members.setdefault(roots[v], []).append(v)
    return [tuple(vs) for vs in members.values()]


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, renumbered ``1..k`` in ascending
    order of their labels."""
    relabel = {v: k for k, v in enumerate(sorted(set(vertices)), start=1)}
    edges = frozenset(
        (relabel[i], relabel[j]) for i, j in g.edges if i in relabel and j in relabel
    )
    return Graph(len(relabel), edges)


def components(g: Graph) -> list[Graph]:
    """Induced subgraphs of the connected components.

    Vertices of each component are renumbered ``1..k`` preserving the order of
    their original labels; :func:`component_vertex_sets` recovers the labels.
    """
    return [induced_subgraph(g, verts) for verts in component_vertex_sets(g)]


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
        e = (i, j) if i < j else (j, i)
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


_SIZED = {"A": 1, "D": 4, "A~": 2, "D~": 4, "path": 1, "cycle": 3, "star": 1}
_FIXED = {"E6": 6, "E7": 7, "E8": 8, "E~6": 7, "E~7": 8, "E~8": 9}


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
            least = _SIZED[self.family]
            if self.size is None:
                raise GraphError(f"family {self.family} needs a size parameter")
            if self.size < least:
                raise GraphError(
                    f"family {self.family} needs size >= {least}, got {self.size}"
                )
        elif self.family in _FIXED:
            if self.size is not None:
                raise GraphError(f"family {self.family} takes no size parameter")
        else:
            raise GraphError(f"unknown family tag {self.family!r}")

    @property
    def vertex_count(self) -> int:
        """Number of vertices of the graph :func:`generate_named` builds."""
        if self.family in _FIXED:
            return _FIXED[self.family]
        if self.family in ("A~", "D~", "star"):
            return self.size + 1
        return self.size

    @property
    def spec_string(self) -> str:
        if self.family in _FIXED:
            return self.family
        if self.family == "path":
            return f"P{self.size}"
        if self.family == "cycle":
            return f"C{self.size}"
        if self.family == "star":
            return f"K1,{self.size}"
        return f"{self.family}{self.size}"


_SPEC_PATTERNS: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r"E~([678])"), "E~"),
    (re.compile(r"E([678])"), "E"),
    (re.compile(r"A~(\d+)"), "A~"),
    (re.compile(r"D~(\d+)"), "D~"),
    (re.compile(r"A(\d+)"), "A"),
    (re.compile(r"D(\d+)"), "D"),
    (re.compile(r"C(\d+)"), "cycle"),
    (re.compile(r"P(\d+)"), "path"),
    (re.compile(r"K1,(\d+)"), "star"),
]


def parse_named_spec(text: str) -> NamedFamily:
    """Parse a family spec string such as ``A5``, ``D~4``, ``E~8``, ``C6``,
    ``P3`` or ``K1,4``."""
    s = text.strip()
    for pattern, tag in _SPEC_PATTERNS:
        m = pattern.fullmatch(s)
        if m is None:
            continue
        if tag == "E~":
            return NamedFamily(f"E~{m.group(1)}")
        if tag == "E":
            return NamedFamily(f"E{m.group(1)}")
        return NamedFamily(tag, int(m.group(1)))
    raise GraphError(
        f"unrecognized graph spec {text!r} "
        "(expected A<n>, D<n>, E6|E7|E8, A~<n>, D~<n>, E~6|E~7|E~8, C<n>, P<n> or K1,<m>)"
    )


def _path_edges(n: int) -> list[tuple[int, int]]:
    return [(v, v + 1) for v in range(1, n)]


def generate_named(spec: NamedFamily) -> Graph:
    """Construct the graph of a named family on vertices 1..n.

    Layout conventions: paths run 1-2-...-n; ``D`` attaches leaves 1 and 2 to
    vertex 3 followed by the path 3..n; the ``E``-type graphs are a path with
    one extra vertex attached to vertex 3 (to the middle vertex for E6 and
    E~7); ``A~<k>`` is the cycle on k+1 vertices; ``D~<k>`` has a two-leaf
    fork at each end of a central path; stars put the center at vertex 1.
    """
    f, n = spec.family, spec.vertex_count
    if f in ("A", "path"):
        return Graph(n, frozenset(_path_edges(n)))
    if f == "D":
        edges = [(1, 3), (2, 3)] + _path_edges(n)[2:]
        return Graph(n, frozenset(edges))
    if f == "E6":
        return Graph(n, frozenset(_path_edges(5) + [(3, 6)]))
    if f == "E7":
        return Graph(n, frozenset(_path_edges(6) + [(3, 7)]))
    if f == "E8":
        return Graph(n, frozenset(_path_edges(7) + [(3, 8)]))
    if f in ("A~", "cycle"):
        return Graph(n, frozenset(_path_edges(n) + [(1, n)]))
    if f == "D~":
        edges = [(1, 3), (2, 3)] + _path_edges(n - 2)[2:] + [(n - 2, n - 1), (n - 2, n)]
        return Graph(n, frozenset(edges))
    if f == "E~6":
        return Graph(n, frozenset(_path_edges(5) + [(3, 6), (6, 7)]))
    if f == "E~7":
        return Graph(n, frozenset(_path_edges(7) + [(4, 8)]))
    if f == "E~8":
        return Graph(n, frozenset(_path_edges(8) + [(3, 9)]))
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


def enumerate_trees(n: int) -> Iterator[Graph]:
    """Yield every labeled tree on ``1..n`` exactly once (n**(n-2) trees).

    Enumeration is by Pruefer sequence. Guarded to ``1 <= n <= 9`` to keep the
    combinatorial blowup in check.
    """
    if not 1 <= n <= 9:
        raise GraphError(f"tree enumeration supports 1 <= n <= 9, got {n}")
    if n == 1:
        yield Graph(1, frozenset())
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield tree_from_pruefer(n, seq)
