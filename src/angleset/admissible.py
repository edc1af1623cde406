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
is decided with no solve by the Cholesky certificate of :func:`_cholesky`,
which states why its verdict is the one that eigen route gives.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Mapping
from functools import cached_property

import numpy as np

from .classify import IndexKind, classify_structure
from .graphs import Graph, GraphError, _Record, _ValueRecord, _integer, edge_key, is_tree
from .spectra import (
    _EPS,
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
    """``tau`` as a float in (0, 1]. ``bool``, text and numpy complex
    scalars are refused, though ``float`` would read them, dropping the
    imaginary part of a complex one; so is whatever ``float`` cannot read.
    A number beyond the float range, such as ``10**400``, reads as ±inf."""
    # A float passes without the isinstance walk, which costs more than the
    # rest of the check.
    if type(tau) is float:
        value = tau
    elif isinstance(tau, (bool, np.bool_, str, bytes, bytearray, np.complexfloating)):
        value = None
    else:
        try:
            value = float(tau)
        except TypeError:  # a Python complex, a list
            value = None
        except OverflowError:  # not echoed: a long int's repr may raise
            value = math.inf if tau > 0 else -math.inf
    if value is None:
        problem = f"must be a real number, got {tau!r}"
    elif 0.0 < value <= 1.0:
        return value
    else:
        problem = f"must lie in (0, 1], got {value}"
    where = f" on edge {edge[0]}-{edge[1]}" if edge else ""
    raise ValueError(f"tau{where} {problem}")


class TauWeighting(_ValueRecord):
    """Assignment of an angle parameter in (0, 1] to every edge.

    Either a single constant for all edges, stored as a float, or a per-edge
    mapping, stored as a dict keyed by :func:`~angleset.graphs.edge_key`
    pairs ``(i, j)`` with ``i < j``. Like ``dict``, ``per_edge`` also takes
    an iterable of ``((i, j), tau)`` pairs. An item that is not such a pair,
    or a key that is not a pair of integer labels, raises
    :class:`~angleset.graphs.GraphError`, a ``ValueError``; an edge named
    twice, in either order, is an error too.
    Treat instances as immutable. Weightings compare by value; a per-edge
    one, holding a dict, cannot be hashed.
    """

    __slots__ = ("constant", "per_edge")
    constant: float | None
    per_edge: Mapping[tuple[int, int], float] | None

    def __init__(self, constant: float | None = None,
                 per_edge: Mapping[tuple[int, int], float] | None = None) -> None:
        if (constant is None) == (per_edge is None):
            raise ValueError("give exactly one of a constant or a per-edge mapping")
        if constant is not None:
            constant = _check_tau_value(constant)
        else:
            fixed: dict[tuple[int, int], float] = {}
            for item in per_edge.items() if isinstance(per_edge, Mapping) else per_edge:
                try:
                    key, value = item
                except (TypeError, ValueError):
                    raise GraphError(
                        f"per-edge item {item!r} is not an (edge, tau) pair") from None
                try:
                    i, j = key
                except (TypeError, ValueError):
                    raise GraphError(
                        f"per-edge key {key!r} is not a pair of vertex labels") from None
                e = edge_key(i, j)
                if e in fixed:
                    raise ValueError(f"edge {e[0]}-{e[1]} weighted twice")
                fixed[e] = _check_tau_value(value, e)
            per_edge = fixed
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "per_edge", per_edge)

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


def _gram_from_arrays(n: int, i: np.ndarray, j: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The n x n Gram matrix of the aligned edge arrays of
    :meth:`TauWeighting.edge_arrays`."""
    a = np.zeros((n, n))
    a.ravel()[::n + 1] = 1.0
    a[i, j] = a[j, i] = np.sqrt(t)
    return a


def _cholesky_shift(n: int, fro: float, floor: float) -> float:
    """Shift s such that a Cholesky factorisation of ``M - s I`` that runs to
    completion proves every eigenvalue of a symmetric n x n matrix M with
    unit diagonal and Frobenius norm ``fro`` above ``floor`` by more than
    LAPACK's error bound (:func:`~angleset.spectra._lapack_bound`).

    s is ``floor + n * eps * fro`` plus twice Cholesky's backward-error
    bound. A Cholesky factor R that LAPACK completes for S = M - s I is
    exact for some S + dS with |dS| <= gamma_{n+1} |R^T| |R| entrywise,
    gamma_k = k eps / (1 - k eps) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 10). So S + dS is PSD and no eigenvalue of S
    lies below -||dS||_2 >= -gamma_{n+1} ||R||_F^2. The squared column norms
    of R are the diagonal of S + dS, so ||R||_F^2 is at most trace(M) = n up
    to a factor 1 / (1 - gamma_{n+1}). Twice gamma_{n+1} n covers that
    factor and the blocking of LAPACK's factorisation.
    """
    k = n + 1
    gamma = k * _EPS / (1.0 - k * _EPS)
    return floor + n * _EPS * fro + 2.0 * gamma * n


def _cholesky(a: np.ndarray, diagonal: float) -> np.ndarray | None:
    """The Cholesky factor of the unit-diagonal Gram matrix ``a`` with its
    diagonal set to ``diagonal``, or ``None`` if it breaks down; ``a`` gets
    its unit diagonal back either way, so it is never copied.

    This is the package's one Cholesky argument. Let s be the shift of
    :func:`_cholesky_shift` at a floor that covers the error of the eigen
    route a verdict stands in for: ``PSD_TOL`` where
    :func:`~angleset.spectra.eigenvalues` solves the Gram matrix, plus
    sqrt(tau) times :func:`~angleset.spectra._jacobi_bound` where a
    constant tau reads 1 + sqrt(tau) spec(A) off Jacobi (the shift's
    n * eps * ||a||_F term covers the rounding of that sum). Completion at
    ``1 - s`` then puts every eigenvalue of ``a`` above the floor by more
    than LAPACK's error bound, so the verdict is rank n. They then exceed
    n gamma_{n+1} / (1 - gamma_{n+1}), so by Demmel's bound (Higham,
    thm. 10.7) the factorisation at ``1`` completes too. Failure at
    ``1 - s`` proves nothing, and the eigen route decides.
    """
    diag = a.ravel()[::a.shape[0] + 1]  # a view: an assembled matrix is C-contiguous
    diag[:] = diagonal
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    finally:
        diag[:] = 1.0


def _certified_gram(n: int, i: np.ndarray, j: np.ndarray, t: np.ndarray,
                    floor: float) -> tuple[bool, np.ndarray]:
    """Whether :func:`_cholesky` certifies the Gram matrix of the aligned
    edge arrays at ``floor``, and that matrix. Its Frobenius norm is
    sqrt(n + 2 sum(t)), up to rounding."""
    shift = _cholesky_shift(n, math.sqrt(n + 2.0 * float(t.sum())), floor)
    a = _gram_from_arrays(n, i, j, t)
    return _cholesky(a, 1.0 - shift) is not None, a


class ExistenceVerdict(_Record):
    """Outcome of the semidefiniteness test.

    ``exists`` means the least Gram eigenvalue is at least ``-PSD_TOL``, i.e.
    the configuration is realizable by unit vectors (for trees this is exact
    existence). ``rank`` counts eigenvalues above ``PSD_TOL``: the ambient
    dimension of the minimal realization. Both are what the eigen route of
    :func:`existence` gives, also when the Cholesky certificate decided them.

    ``min_eigenvalue`` is the least eigenvalue that route computes, except
    for a certified verdict: that one solves its Gram matrix, assembled
    again, with :func:`~angleset.spectra.eigenvalues` by calling ``_least``
    the first time it is read, and keeps the result in the instance
    ``__dict__``. Verdicts compare by identity, since comparing their values
    could cost a solve.
    """

    exists: bool
    rank: int
    _least: Callable[[], float]

    def __init__(self, exists: bool, rank: int, _least: Callable[[], float]) -> None:
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "_least", _least)

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
    spectrum is memoised, as ``sigma`` and ``classify`` leave it, reads the
    verdict off 1 + sqrt(tau) spec(A). Any other constant tau first tries
    the certificate of :func:`_cholesky` at a floor that covers Jacobi's
    error too, and solves the adjacency spectrum if it fails. A certified
    verdict is rank n and solves nothing until ``min_eigenvalue`` is read,
    and then only its Gram matrix, by :func:`~angleset.spectra.eigenvalues`,
    so it pins no n x n matrix and leaves the adjacency spectrum unsolved.
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
    gives on the Gram matrix A of ``(g, w)``, and that matrix, assembled
    once.

    The certificate of :func:`_cholesky` at floor ``PSD_TOL`` decides a
    definite matrix with no solve; if it fails, ``eigenvalues`` decides. A
    per-edge :func:`existence` returns this verdict, and
    :func:`~angleset.configurations.construct_configuration` factors by it.
    """
    certified, a = _certified_gram(g.n, *w.edge_arrays(g), PSD_TOL)
    if certified:
        return _certified_verdict(g, w), a
    return ExistenceVerdict.from_eigenvalues(eigenvalues(a).eigenvalues), a


def _certified_verdict(g: Graph, w: TauWeighting) -> ExistenceVerdict:
    """The rank-n verdict the certificate proves, whose least eigenvalue
    :func:`~angleset.spectra.eigenvalues` solves on first read, from the
    Gram matrix assembled again, so that the verdict pins no n x n matrix."""
    return ExistenceVerdict(True, g.n, lambda: eigenvalues(gram_matrix(g, w)).min_eigenvalue)


class SigmaInterval(_ValueRecord):
    """Admissible parameter interval ``(0, upper]``; intervals compare and
    hash by ``upper``."""

    __slots__ = ("upper",)
    upper: float

    def __init__(self, upper: float) -> None:
        if not 0.0 < upper <= 1.0:
            raise ValueError(f"interval endpoint must lie in (0, 1], got {upper}")
        object.__setattr__(self, "upper", upper)


def sigma_tree(g: Graph) -> SigmaInterval:
    """Admissible interval (0, 1/r^2] of a tree with at least one edge."""
    if not is_tree(g):
        raise ValueError("admissible-interval formula applies to trees only")
    if g.n < 2:
        raise ValueError("tree must have at least one edge")
    r = graph_index(g)
    return SigmaInterval(min(1.0, 1.0 / (r * r)))


def sigma_cycle(n: int) -> SigmaInterval:
    """Admissible interval of the cycle on ``n >= 3`` vertices; ``n`` must
    be a Python or numpy integer, not ``bool``, or ``ValueError`` is raised.

    Equals the interval of the path on ``n - 1`` vertices: the endpoint is
    1/(4cos^2(pi/n)), strictly above 1/4. Note this is not the
    semidefiniteness threshold of the cycle's own Gram matrix, which caps at
    1/4; the two agree only on trees.
    """
    if type(n) is not int:
        n = _integer(n, f"cycle length must be an integer, got {n!r}")
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

    @classmethod
    def of(cls, kind: IndexKind) -> QuarterPosition:
        """The position of a tree whose index class is ``kind``."""
        return {IndexKind.SUBCRITICAL: cls.ABOVE, IndexKind.CRITICAL: cls.EQUAL,
                IndexKind.SUPERCRITICAL: cls.BELOW}[kind]


def trichotomy(g: Graph) -> QuarterPosition:
    """Where the endpoint 1/r^2 of a tree's admissible interval sits relative
    to 1/4: above, at or below as the index r is below, at or above 2.

    Read off the exact shape alone, in O(n) with no eigensolve: by Smith's
    classification plain Dynkin shapes lie above, their tilde extensions
    exactly at, and every other tree below 1/4. The tests, not this call,
    check that shape against the numeric index class.
    """
    if not is_tree(g):
        raise ValueError("trichotomy applies to trees only")
    return QuarterPosition.of(classify_structure(g).predicted_index_kind)
