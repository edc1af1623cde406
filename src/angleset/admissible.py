"""Existence of fixed-angle configurations via the weighted Gram matrix.

For a graph on n vertices and an edge weighting tau with values in (0, 1],
the Gram matrix has unit diagonal, sqrt(tau_ij) on edges and 0 elsewhere.
Positive semidefiniteness of that matrix is exactly realizability by unit
vectors with inner product sqrt(tau_ij) on edges and orthogonality otherwise;
for trees it decides existence of the configuration outright, and the rank
counts the dimension it lives in. The admissible parameter interval of a tree
is (0, 1/r^2] where r is the graph index; cycles get their own closed form.

:func:`existence` gives the verdict the Gram eigenvalues give: at a constant
tau those are 1 + sqrt(tau) spec(A), from the graph's memoised adjacency
spectrum (:func:`graph_spectrum`), and per edge those of
:func:`~angleset.spectra.eigenvalues` on the Gram matrix. A definite matrix
is decided with no solve by the Cholesky certificate of :mod:`.spectra`,
which states why its verdict is the one that eigen route gives.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .classify import GraphClass, IndexKind, classify_index, classify_structure
from .graphs import Graph, edge_key, is_tree
from .spectra import (
    _certified_definite,
    _cholesky_shift,
    _jacobi_bound,
    _memoised_spectrum,
    eigenvalues,
    graph_index,
    graph_spectrum,
)

__all__ = [
    "ExistenceVerdict",
    "PSD_TOL",
    "QuarterPosition",
    "SigmaInterval",
    "TauWeighting",
    "TauLike",
    "existence",
    "gram_matrix",
    "sigma_cycle",
    "sigma_tree",
    "trichotomy",
]

PSD_TOL = 1e-9


def _check_tau_value(tau, edge: tuple[int, int] | None = None) -> float:
    """``tau`` as a float in (0, 1]. ``bool`` and text are refused, though
    ``float`` would read them."""
    # A float passes without the isinstance walk, which costs more than the
    # rest of the check.
    if type(tau) is not float and isinstance(tau, (bool, np.bool_, str, bytes, bytearray)):
        problem = f"must be a real number, got {tau!r}"
    else:
        tau = float(tau)
        if 0.0 < tau <= 1.0:
            return tau
        problem = f"must lie in (0, 1], got {tau}"
    where = f" on edge {edge[0]}-{edge[1]}" if edge else ""
    raise ValueError(f"tau{where} {problem}")


@dataclass(frozen=True)
class TauWeighting:
    """Assignment of an angle parameter in (0, 1] to every edge.

    Either a single constant for all edges, stored as a float, or a per-edge
    mapping, stored as a dict keyed by :func:`~angleset.graphs.edge_key`
    pairs ``(i, j)`` with ``i < j``. Like ``dict``, ``per_edge`` also takes
    an iterable of ``((i, j), tau)`` pairs. An edge named twice, in either
    order, is an error. Treat instances as immutable.
    """

    constant: float | None = None
    per_edge: Mapping[tuple[int, int], float] | None = None

    def __post_init__(self) -> None:
        if (self.constant is None) == (self.per_edge is None):
            raise ValueError("give exactly one of a constant or a per-edge mapping")
        if self.constant is not None:
            object.__setattr__(self, "constant", _check_tau_value(self.constant))
            return
        pairs = self.per_edge
        fixed: dict[tuple[int, int], float] = {}
        for (i, j), value in pairs.items() if isinstance(pairs, Mapping) else pairs:
            e = edge_key(i, j)
            if e in fixed:
                raise ValueError(f"edge {e[0]}-{e[1]} weighted twice")
            fixed[e] = _check_tau_value(value, e)
        object.__setattr__(self, "per_edge", fixed)

    @classmethod
    def of(cls, value: "TauLike") -> "TauWeighting":
        """Coerce a raw float or an edge mapping into a weighting."""
        if isinstance(value, TauWeighting):
            return value
        if isinstance(value, Mapping):
            return cls(per_edge=value)
        return cls(constant=value)

    def edge_arrays(self, g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """0-based endpoints ``i < j`` of every edge of ``g`` and tau on each,
        as three aligned arrays. The endpoint arrays are the graph's
        read-only edge index, so its edges are walked once per graph. A
        per-edge weighting must cover the edge set exactly."""
        edges, i, j = g._edge_index
        m = len(edges)
        if self.constant is not None:
            t = np.full(m, self.constant)
        else:
            try:
                t = np.fromiter(map(self.per_edge.__getitem__, edges), dtype=float, count=m)
            except KeyError:
                a, b = min(g.edges - self.per_edge.keys())
                raise ValueError(f"per-edge weighting misses edge {a}-{b}") from None
            if len(self.per_edge) != m:
                a, b = min(self.per_edge.keys() - g.edges)
                raise ValueError(f"per-edge weighting names non-edge {a}-{b}")
        return i, j, t


# A ``|`` union, not ``typing.Union``: typing memoises its unions, and the
# memo would keep this module's class, and with it every module of this
# import of the package, alive after a fresh import replaces them.
TauLike = TauWeighting | float | Mapping[tuple[int, int], float]


def gram_matrix(g: Graph, tau: TauLike) -> np.ndarray:
    """Gram matrix: unit diagonal, sqrt(tau_ij) on edges, zero elsewhere."""
    return _gram_from_arrays(g.n, *TauWeighting.of(tau).edge_arrays(g))


def _gram_from_arrays(n: int, i: np.ndarray, j: np.ndarray, t: np.ndarray,
                      shift: float = 0.0) -> np.ndarray:
    """The n x n Gram matrix of the aligned edge arrays of
    :meth:`TauWeighting.edge_arrays`, less ``shift`` times the identity."""
    a = np.zeros((n, n))
    a.flat[::n + 1] = 1.0 - shift
    a[i, j] = a[j, i] = np.sqrt(t)
    return a


def _certified_gram(n: int, i: np.ndarray, j: np.ndarray, t: np.ndarray,
                    floor: float) -> tuple[bool, np.ndarray]:
    """Whether the Cholesky certificate of
    :func:`~angleset.spectra._certified_definite` proves every eigenvalue
    of the Gram matrix of the aligned edge arrays above ``floor`` by more
    than LAPACK's error bound, and that Gram matrix.

    The matrix is assembled already shifted and its unit diagonal restored
    after the factorisation, so it is built once and never copied. Its
    Frobenius norm is sqrt(n + 2 sum(t)), up to rounding.
    """
    fro = math.sqrt(n + 2.0 * float(t.sum()))
    a = _gram_from_arrays(n, i, j, t, _cholesky_shift(n, fro, floor))
    certified = _certified_definite(a)
    a.flat[::n + 1] = 1.0
    return certified, a


@dataclass(frozen=True, eq=False)
class ExistenceVerdict:
    """Outcome of the semidefiniteness test.

    ``exists`` means the least Gram eigenvalue is at least ``-PSD_TOL``, i.e.
    the configuration is realizable by unit vectors (for trees this is exact
    existence). ``rank`` counts eigenvalues above ``PSD_TOL``: the ambient
    dimension of the minimal realization. Both are what the eigen route of
    :func:`existence` gives, also when the Cholesky certificate decided them.

    ``min_eigenvalue`` is the least eigenvalue that route computes, except
    for a certified verdict: that one solves its Gram matrix, assembled
    again, with :func:`~angleset.spectra.eigenvalues` by calling ``_least``
    the first time it is read, and keeps the result. Verdicts compare by
    identity, since comparing their values could cost a solve.
    """

    exists: bool
    rank: int
    _least: Callable[[], float] = field(repr=False)

    @cached_property
    def min_eigenvalue(self) -> float:
        """Least Gram eigenvalue, solved on first read if not yet known."""
        return self._least()

    @classmethod
    def from_eigenvalues(cls, evals: np.ndarray) -> "ExistenceVerdict":
        """Verdict on descending eigenvalues; the ``rank`` kept form a prefix."""
        lam_min = float(evals[-1])
        return cls(lam_min >= -PSD_TOL, int(np.count_nonzero(evals > PSD_TOL)), lambda: lam_min)


def existence(g: Graph, tau: TauLike) -> ExistenceVerdict:
    """Semidefiniteness verdict for the Gram matrix of ``(g, tau)`` at the
    fixed ``PSD_TOL``, the cut :func:`construct_configuration` uses too.

    For trees this decides whether a configuration with the prescribed angles
    exists. For graphs with cycles PSD remains sufficient (the explicit
    construction still goes through) but is not claimed necessary.

    A per-edge tau gets the verdict of :func:`_gram_verdict`, the one
    ``construct`` factors by. A constant tau on a graph whose adjacency
    spectrum is memoised, as ``sigma``, ``trichotomy`` and ``classify``
    leave it, reads the verdict off 1 + sqrt(tau) spec(A). Any other
    constant tau first tries the Cholesky certificate
    (:func:`~angleset.spectra._certified_definite`) at a floor that covers
    Jacobi's error too, and solves the adjacency spectrum if it fails. A
    certified verdict is rank n and solves nothing until ``min_eigenvalue``
    is read, and then only its Gram matrix, by
    :func:`~angleset.spectra.eigenvalues`, so it pins no n x n matrix and
    leaves the adjacency spectrum unsolved.
    """
    w = TauWeighting.of(tau)
    c = w.constant
    if c is None:
        return _gram_verdict(g, w)[0]
    if _memoised_spectrum(g) is None:
        i, j, t = w.edge_arrays(g)
        # A has 2m unit entries: ||A||_F = sqrt(2m)
        floor = PSD_TOL + math.sqrt(c) * _jacobi_bound(g.n, math.sqrt(2.0 * len(t)))
        if _certified_gram(g.n, i, j, t, floor)[0]:
            return _certified_verdict(g, w)
    return ExistenceVerdict.from_eigenvalues(1.0 + math.sqrt(c) * graph_spectrum(g).eigenvalues)


def _gram_verdict(g: Graph, w: TauWeighting) -> tuple[ExistenceVerdict, np.ndarray]:
    """The verdict at ``PSD_TOL`` that :func:`~angleset.spectra.eigenvalues`
    gives on the Gram matrix of ``(g, w)``, and that matrix, assembled once.

    The Cholesky certificate at floor ``PSD_TOL`` decides a definite matrix
    with no solve; if it fails, ``eigenvalues`` decides.
    """
    certified, a = _certified_gram(g.n, *w.edge_arrays(g), PSD_TOL)
    if certified:
        return _certified_verdict(g, w), a
    return ExistenceVerdict.from_eigenvalues(eigenvalues(a).eigenvalues), a


def _certified_verdict(g: Graph, w: TauWeighting) -> ExistenceVerdict:
    """The rank-n verdict of a Gram matrix the certificate proves definite;
    its least eigenvalue comes from the matrix assembled again."""
    return ExistenceVerdict(True, g.n, lambda: eigenvalues(gram_matrix(g, w)).min_eigenvalue)


@dataclass(frozen=True)
class SigmaInterval:
    """Admissible parameter interval ``(0, upper]``."""

    upper: float

    def __post_init__(self) -> None:
        if not 0.0 < self.upper <= 1.0:
            raise ValueError(f"interval endpoint must lie in (0, 1], got {self.upper}")


def sigma_tree(g: Graph) -> SigmaInterval:
    """Admissible interval (0, 1/r^2] of a tree with at least one edge."""
    if not is_tree(g):
        raise ValueError("admissible-interval formula applies to trees only")
    if g.n < 2:
        raise ValueError("tree must have at least one edge")
    r = graph_index(g)
    return SigmaInterval(min(1.0, 1.0 / (r * r)))


def sigma_cycle(n: int) -> SigmaInterval:
    """Admissible interval of the cycle on ``n >= 3`` vertices.

    Equals the interval of the path on ``n - 1`` vertices: the endpoint is
    1/(4cos^2(pi/n)), strictly above 1/4. Note this is not the
    semidefiniteness threshold of the cycle's own Gram matrix, which caps at
    1/4; the two agree only on trees.
    """
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return SigmaInterval(_coxeter_endpoint(n))


def _coxeter_endpoint(h: int) -> float:
    """Endpoint 1/(4cos^2(pi/h)), capped at 1, of the Dynkin shapes with
    Coxeter number ``h``; the path on n vertices has h = n + 1."""
    c = math.cos(math.pi / h)
    return min(1.0, 1.0 / (4.0 * c * c))


class QuarterPosition(enum.Enum):
    """Position of a tree's interval endpoint relative to 1/4."""

    ABOVE = "AboveQuarter"
    EQUAL = "EqualQuarter"
    BELOW = "BelowQuarter"


_QUARTER = {
    IndexKind.SUBCRITICAL: QuarterPosition.ABOVE,
    IndexKind.CRITICAL: QuarterPosition.EQUAL,
    IndexKind.SUPERCRITICAL: QuarterPosition.BELOW,
}


def trichotomy(g: Graph) -> QuarterPosition:
    """Where the endpoint 1/r^2 of a tree's admissible interval sits relative
    to 1/4: above, at or below as the index r is below, at or above 2.

    Read off the structural index class: plain Dynkin shapes lie above, their
    tilde extensions exactly at, and every other tree below 1/4. The numeric
    index class cross-checks it.
    """
    if not is_tree(g):
        raise ValueError("trichotomy applies to trees only")
    return _quarter_position(g, classify_structure(g))


def _quarter_position(g: Graph, shapes: GraphClass) -> QuarterPosition:
    """:func:`trichotomy` of a tree ``g`` whose structural class ``shapes`` is
    already known, cross-checked against the numeric index class."""
    kind = shapes.predicted_index_kind
    numeric = classify_index(g)
    if numeric.kind is not kind:
        raise RuntimeError(
            f"structural position {_QUARTER[kind].value} contradicts index "
            f"{numeric.index!r} ({numeric.kind.value})"
        )
    return _QUARTER[kind]
