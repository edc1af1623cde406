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
import reprlib
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
# no larger graph, load_configuration reads no larger document, and the
# library's dense n x n routes (adjacency_matrix, gram_matrix and
# verify_configuration) refuse a larger one before they allocate.
MAX_VERTICES = 2000


def check_vertex_count(n: int) -> None:
    """:class:`GraphError` if ``n`` vertices are more than ``MAX_VERTICES``."""
    if n > MAX_VERTICES:
        raise GraphError(f"graph has {_shown(n)} vertices, above the limit of {MAX_VERTICES}")


class _ShortRepr(reprlib.Repr):
    """reprlib's repr, which shows the first few items of a container, but
    an int past 1,000 bits is named by its size: Python may refuse to
    convert one past 640 digits (``sys.set_int_max_str_digits``)."""

    def repr_int(self, x, level):
        bits = x.bit_length()
        return f"<{bits}-bit int>" if bits > 1000 else super().repr_int(x, level)


_SHOWN_MAX = 60
_SHORT = _ShortRepr()
_SHORT.maxlevel, _SHORT.maxlong, _SHORT.maxother = 3, 30, _SHOWN_MAX


def _shown(value) -> str:
    """``repr(value)`` for an error message, in at most ``_SHOWN_MAX``
    characters: a string past 40 characters as its first 20 and its length,
    anything else through :class:`_ShortRepr`, then cut."""
    if type(value) is not str:
        text = _SHORT.repr(value)
    elif len(value) <= 40:
        text = repr(value)
    else:
        text = f"{value[:20]!r}... ({len(value)} characters)"
    return text if len(text) <= _SHOWN_MAX else f"{text[:_SHOWN_MAX - 3]}..."


def _edge_name(e: tuple[int, int]) -> str:
    """``i-j`` for the integer labels of an edge, each through :func:`_shown`."""
    return f"{_shown(e[0])}-{_shown(e[1])}"


def _integer(value, what: str) -> int:
    """``value`` as a Python int if it is a Python or numpy integer other
    than ``bool``; otherwise :class:`GraphError`, which names ``what``."""
    # bool is an int subclass, so operator.index(True) would be 1.
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise GraphError(f"{what} must be an integer, got {_shown(value)}")


def _edge_of(item) -> tuple[int, int]:
    """The edge ``(min, max)``, Python-int labels, of a vertex pair in either
    order; :class:`GraphError` for an item that is not a pair, a label that
    is not a Python or numpy integer (``bool`` is not) and a loop. The one
    vertex-pair rule: :class:`Graph`, :func:`parse_edge_list` and the keys
    of :class:`~angleset.admissible.TauWeighting` read pairs through it."""
    try:
        i, j = item
    except (TypeError, ValueError):
        raise GraphError(f"edge {_shown(item)} is not a pair of vertex labels") from None
    if type(i) is not int or type(j) is not int:
        try:
            i, j = _integer(i, "vertex label"), _integer(j, "vertex label")
        except GraphError:
            raise GraphError(
                f"vertex labels must be integers, got edge {_shown((i, j))}") from None
    if i == j:
        raise GraphError(f"loop edge {_edge_name((i, j))}")
    return (i, j) if i < j else (j, i)


def _edge_set(pairs: Iterable[tuple[int, int]]) -> tuple[frozenset[tuple[int, int]], int, int]:
    """The :func:`_edge_of` of every pair, as a frozenset, with the least
    label below 1 (else 1) and the largest label (0 with no pairs), by the
    one walk of :class:`Graph`'s gate, which checks the range from them."""
    try:
        items = iter(pairs)
    except TypeError:
        raise GraphError(
            f"edges must be an iterable of vertex pairs, got {_shown(pairs)}") from None
    seen: set[tuple[int, int]] = set()
    low, top = 1, 0
    for item in items:
        e = _edge_of(item)
        if e in seen:
            raise GraphError(f"duplicate edge {_edge_name(e)}")
        seen.add(e)
        i, j = e
        if i < low:
            low = i
        if j > top:
            top = j
    return frozenset(seen), low, top


# The vertex count ``from_edges`` hands to ``Graph`` when it is given none:
# the largest label the gate's walk meets, 1 with no edges.
_LARGEST_LABEL = object()


class _Record:
    """Base of the package's record types. A record's fields are the names
    its class body annotates, in order (``_field_names``). They are also
    listed in ``__slots__`` unless the class keeps memos, which need an
    instance ``__dict__``; only :class:`Graph` does. ``_Record.__init__``
    takes the fields positionally in that order, exactly as many as there
    are (``TypeError`` otherwise), and is the one place that sets them, each
    once, with ``object.__setattr__``. A record type that checks its input
    keeps an ``__init__`` for the checks alone, which ends by passing the
    fields on to it. Assigning or deleting any attribute of an instance
    afterwards raises ``AttributeError``. So copies and pickles are rebuilt
    through ``__init__`` from the fields, without the memos. Records compare
    by identity; those of :class:`_ValueRecord` compare by their fields.

    Plain classes rather than frozen dataclasses: a dataclass execs the
    source of its generated methods when its class is defined, which cost
    most of the package's import time with bytecode cached.
    """

    __slots__ = ()
    _field_names = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that annotates nothing keeps the fields of its base.
        if names := tuple(cls.__annotations__):
            cls._field_names = names

    def __init__(self, *values) -> None:
        names = self._field_names
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(names)} fields, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._field_names if not name.startswith("_"))
        return f"{type(self).__qualname__}({shown})"


class _ValueRecord(_Record):
    """A record equal only to a record of its own class with equal fields,
    and hashed by its fields, in their order; an unhashable field makes
    it unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Graph(_ValueRecord):
    """Immutable simple graph on vertices ``1..n``.

    ``Graph(n, edges)`` is the one gate for edge sets. ``edges`` may be any
    iterable of vertex pairs in either order; it is stored as a frozenset of
    pairs ``(i, j)`` with ``i < j`` and Python-int labels. A label, like the
    vertex count, must be a Python or numpy integer, not ``bool``. One walk
    in the given order raises :class:`GraphError` at the first item that is
    not a pair, the first loop or the first pair named twice; after it, so
    does an edge outside ``1..n``, from the least and largest labels the
    walk kept. :meth:`from_edges` takes ``n`` from the largest label of the
    same walk. Every source of edges takes this one path, a frozenset too,
    which is stored as a new frozenset. Vertices without incident edges are
    allowed. Graphs compare and hash by ``n`` and ``edges``.

    A graph memoises four things it derives from its edges, each the first
    time it is needed: the edge index (``_edge_index``: the edges in one
    fixed order with their read-only 0-based endpoint arrays), the component
    roots (``_component_roots``, found by union-find over the edge set,
    which :func:`is_connected`, :func:`is_tree` and
    :func:`component_vertex_sets` read), the shapes of its components
    (:func:`~angleset.classify.classify_structure`) and the adjacency
    spectrum (:func:`~angleset.spectra.graph_spectrum`, solved from the edge
    index). Each memo lives in the instance ``__dict__`` and dies with its
    ``Graph`` object. It keeps no neighbour sets:
    :func:`~angleset.classify.classify_structure` builds the only neighbour
    lists, for its first call.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        if n is not _LARGEST_LABEL:
            if type(n) is not int:
                n = _integer(n, "vertex count")
            if n < 1:
                raise GraphError("vertex count must be at least 1")
        edges, low, top = _edge_set(edges)
        if n is _LARGEST_LABEL:
            n = max(1, top)
        if low < 1 or top > n:
            e = next(e for e in edges if e[0] < 1 or e[1] > n)
            raise GraphError(f"edge {_edge_name(e)} out of vertex range 1..{_shown(n)}")
        super().__init__(n, edges)

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], n: int | None = None) -> "Graph":
        """The graph on ``n`` vertices with these vertex pairs as its edges.

        ``n`` defaults to the largest endpoint, and to 1 with no edges,
        which the one walk of the gate of ``Graph(n, edges)`` finds.
        """
        return cls(_LARGEST_LABEL if n is None else n, edges)

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
    """Dense 0/1 adjacency matrix of ``g`` (symmetric, zero diagonal);
    :func:`check_vertex_count` refuses a graph past ``MAX_VERTICES`` before
    anything is allocated."""
    check_vertex_count(g.n)
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


# An optional minus sign and ASCII digits: ``int`` would also read "+1",
# "1_0" and other scripts' digits.
_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(token: str) -> int:
    """``token`` as an int if it is an ASCII decimal integer, optionally
    negative; ``ValueError`` otherwise."""
    if _DECIMAL.fullmatch(token) is None:
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format.

    An optional first line ``n <count>`` fixes the vertex count (allowing
    trailing isolated vertices); otherwise the largest endpoint wins. Every
    other non-empty line that does not start with ``#`` must be two integer
    labels ``i j``. Counts and labels are ASCII decimal integers. Loops and
    duplicate edges are reported with their line number.
    """
    declared: int | None = None
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
                declared = _decimal(parts[1])
            except ValueError:
                raise GraphError(
                    f"line {lineno}: header count {_shown(parts[1])} is not an integer"
                ) from None
            if declared < 1:
                raise GraphError(f"line {lineno}: vertex count must be at least 1")
            allow_header = False
            continue
        allow_header = False
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'i j', got {_shown(line)}")
        try:
            i, j = _decimal(parts[0]), _decimal(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: vertex labels must be integers") from None
        if i < 1 or j < 1:
            raise GraphError(f"line {lineno}: vertex labels start at 1")
        try:
            e = _edge_of((i, j))
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
        if e in seen:
            raise GraphError(f"line {lineno}: duplicate edge {_edge_name(e)}")
        seen.add(e)
        max_label = max(max_label, e[1])
    if declared is None:
        if max_label == 0:
            raise GraphError(
                "empty edge list: give at least one edge or an 'n <count>' header"
            )
        declared = max_label
    elif max_label > declared:
        raise GraphError(
            f"edge endpoint {_shown(max_label)} exceeds declared vertex count {_shown(declared)}"
        )
    return Graph(declared, seen)


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


class NamedFamily(_ValueRecord):
    """A named diagram family together with its size parameter.

    Sized families: ``A`` (n >= 1), ``D`` (n >= 4), ``A~`` (n >= 2),
    ``D~`` (n >= 4), plus the aliases ``path``, ``cycle``, ``star``.
    The size, like a vertex count, must be a Python or numpy integer, not
    ``bool``; it is stored as a Python int. The ``E``-type families are
    fixed-size and take no parameter. A family with tag ``X~`` has
    ``size + 1`` vertices; the plain ones have ``size``. Families compare
    and hash by ``family`` and ``size``.
    """

    __slots__ = ("family", "size")
    family: str
    size: int | None

    def __init__(self, family: str, size: int | None = None) -> None:
        if family in _SIZED:
            least = _SIZED[family][1]
            if size is None:
                raise GraphError(f"family {family} needs a size parameter")
            if type(size) is not int:
                size = _integer(size, f"family {family} size")
            if size < least:
                raise GraphError(f"family {family} needs size >= {least}, got {_shown(size)}")
        elif family in E_ARMS:
            if size is not None:
                raise GraphError(f"family {family} takes no size parameter")
        else:
            raise GraphError(f"unknown family tag {_shown(family)}")
        super().__init__(family, size)

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
    m = re.fullmatch(r"(.*?)([0-9]+)", s)
    if m is not None and m.group(1) in _BY_PREFIX:
        digits = m.group(2)
        try:
            size = int(digits)
        except ValueError:  # past the interpreter's limit on digits read
            raise GraphError(
                f"graph spec {_shown(s)} has a size of {len(digits)} digits, too many to read"
            ) from None
        return NamedFamily(_BY_PREFIX[m.group(1)], size)
    raise GraphError(
        f"unrecognized graph spec {_shown(text)} "
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
        return Graph(n, _path_edges(n))
    if f == "D":
        return Graph(n, [(1, 3), (2, 3)] + _path_edges(n)[2:])
    if f in E_ARMS:
        left, right, _ = E_ARMS[f]
        spine = left + right + 1
        arm = [left + 1, *range(spine + 1, n + 1)]
        return Graph(n, _path_edges(spine) + list(zip(arm, arm[1:])))
    if f in ("A~", "cycle"):
        return Graph(n, _path_edges(n) + [(1, n)])
    if f == "D~":
        return Graph(n, [(1, 3), (2, 3)] + _path_edges(n - 2)[2:] + [(n - 2, n - 1), (n - 2, n)])
    if f == "star":
        return Graph(n, [(1, v) for v in range(2, n + 1)])
    raise GraphError(f"unknown family tag {f!r}")  # pragma: no cover


def tree_from_pruefer(n: int, seq: Sequence[int]) -> Graph:
    """Decode a Pruefer sequence into its labeled tree on ``1..n``.

    The decoding is the standard bijection: sequences of length ``n - 2`` over
    ``1..n`` correspond one-to-one to labeled trees. ``n`` and the entries
    must be integers, as for :class:`Graph`, or :class:`GraphError` is raised.
    """
    if type(n) is not int:
        n = _integer(n, "vertex count")
    if n < 2:
        raise GraphError("Pruefer decoding needs n >= 2")
    seq = [v if type(v) is int else _integer(v, "Pruefer entry") for v in seq]
    if len(seq) != n - 2:
        raise GraphError(
            f"Pruefer sequence for n={_shown(n)} must have length {_shown(n - 2)}")
    degree = [1] * (n + 1)
    for v in seq:
        if not 1 <= v <= n:
            raise GraphError(f"Pruefer entry {_shown(v)} out of range 1..{n}")
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[tuple[int, int]] = []
    for v in seq:
        u = heapq.heappop(leaves)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(n, edges)
