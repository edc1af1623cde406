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
which states why its verdict is the one that eigen route gives, on the
one matrix its caller assembled with :func:`gram_matrix`.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping

import numpy as np

from .classify import IndexKind, _coxeter_endpoint, classify_structure
from .graphs import (Graph, GraphError, _edge_name, _edge_of, _integer, _Record, _shown,
                     _ValueRecord, check_vertex_count, is_tree)
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
        problem = f"must be a real number, got {_shown(tau)}"
    elif 0.0 < value <= 1.0:
        return value
    else:
        problem = f"must lie in (0, 1], got {value}"
    where = f" on edge {_edge_name(edge)}" if edge else ""
    raise ValueError(f"tau{where} {problem}")


class TauWeighting(_ValueRecord):
    """Assignment of an angle parameter in (0, 1] to every edge.

    Either a single constant for all edges, stored as a float, or a per-edge
    mapping, stored as a dict keyed by pairs ``(i, j)`` with ``i < j``. Like
    ``dict``, ``per_edge`` also takes an iterable of ``((i, j), tau)``
    pairs. Anything else or an item that is not such a pair raises
    :class:`~angleset.graphs.GraphError`, a ``ValueError``; so does a key
    that ``Graph`` refuses as an edge, with its message, and an edge
    weighted twice, in either order.
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
            try:
                items = iter(per_edge.items() if isinstance(per_edge, Mapping) else per_edge)
            except TypeError:
                raise GraphError("per_edge must be a mapping or an iterable of (edge, tau) "
                                 f"pairs, got {_shown(per_edge)}") from None
            for item in items:
                try:
                    key, value = item
                except (TypeError, ValueError):
                    raise GraphError(
                        f"per-edge item {_shown(item)} is not an (edge, tau) pair") from None
                e = _edge_of(key)
                if e in fixed:
                    raise ValueError(f"edge {_edge_name(e)} weighted twice")
                fixed[e] = _check_tau_value(value, e)
            per_edge = fixed
        super().__init__(constant, per_edge)

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
                raise ValueError(f"per-edge weighting misses edge {_edge_name((a, b))}") from None
            if len(self.per_edge) != m:
                a, b = min(self.per_edge.keys() - g.edges)
                raise ValueError(f"per-edge weighting names non-edge {_edge_name((a, b))}")
        return i, j, t


# A ``|`` union, not ``typing.Union``: typing memoises its unions, and the
# memo would keep this module's class, and with it every module of this
# import of the package, alive after a fresh import replaces them.
TauLike = TauWeighting | float | Mapping[tuple[int, int], float]


def gram_matrix(g: Graph, tau: TauLike) -> np.ndarray:
    """Gram matrix: unit diagonal, sqrt(tau_ij) on edges, zero elsewhere.
    :func:`~angleset.graphs.check_vertex_count` refuses a graph past
    ``MAX_VERTICES`` before anything is allocated."""
    check_vertex_count(g.n)
    i, j, t = TauWeighting.of(tau).edge_arrays(g)
    n = g.n
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
    than LAPACK's error bound, so the verdict is rank n, and computes no
    eigenvalue (its ``min_eigenvalue`` is ``None``). They then exceed
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


def _certified(a: np.ndarray, floor: float) -> bool:
    """Whether :func:`_cholesky` certifies every eigenvalue of the Gram
    matrix ``a`` above ``floor``, at the shift of :func:`_cholesky_shift`."""
    shift = _cholesky_shift(a.shape[0], float(np.linalg.norm(a)), floor)
    return _cholesky(a, 1.0 - shift) is not None


class ExistenceVerdict(_Record):
    """Outcome of the semidefiniteness test.

    ``exists`` means the least Gram eigenvalue is at least ``-PSD_TOL``, i.e.
    the configuration is realizable by unit vectors (for trees this is exact
    existence). ``rank`` counts eigenvalues above ``PSD_TOL``: the ambient
    dimension of the minimal realization. Both are what the eigen route of
    :func:`existence` gives, also when the Cholesky certificate decided them.

    ``min_eigenvalue`` is the least eigenvalue that route computed, or
    ``None`` when the certificate decided the verdict, which computes no
    eigenvalue; ``eigenvalues(gram_matrix(g, tau)).min_eigenvalue`` solves
    it then. Verdicts compare by identity.
    """

    __slots__ = ("exists", "rank", "min_eigenvalue")
    exists: bool
    rank: int
    min_eigenvalue: float | None

    @classmethod
    def from_eigenvalues(cls, evals: np.ndarray) -> "ExistenceVerdict":
        """Verdict on descending eigenvalues; the ``rank`` kept form a prefix."""
        lam_min = float(evals[-1])
        return cls(lam_min >= -PSD_TOL, int(np.count_nonzero(evals > PSD_TOL)), lam_min)


def existence(g: Graph, tau: TauLike) -> ExistenceVerdict:
    """Semidefiniteness verdict for the Gram matrix of ``(g, tau)`` at the
    fixed ``PSD_TOL``, the cut :func:`construct_configuration` uses too.

    For trees this decides whether a configuration with the prescribed angles
    exists. For graphs with cycles PSD remains sufficient (the explicit
    construction still goes through) but is not claimed necessary.

    A per-edge tau gets the verdict of :func:`_gram_verdict` on its Gram
    matrix, the one ``construct`` factors by. A constant tau on a graph
    whose adjacency spectrum is memoised reads the verdict off
    1 + sqrt(tau) spec(A). Any other constant tau first tries the
    certificate of :func:`_cholesky` at a floor that covers Jacobi's error
    too, and solves the adjacency spectrum if it fails. Each call assembles
    the Gram matrix at most once, and a certified verdict, rank n with no
    least eigenvalue, keeps neither it nor the graph.
    """
    w = TauWeighting.of(tau)
    c = w.constant
    if c is None:
        return _gram_verdict(gram_matrix(g, w))
    if _memoised_spectrum(g) is None:
        # A has 2m unit entries: ||A||_F = sqrt(2m)
        floor = PSD_TOL + math.sqrt(c) * _jacobi_bound(g.n, math.sqrt(2.0 * len(g.edges)))
        if _certified(gram_matrix(g, w), floor):
            return ExistenceVerdict(True, g.n, None)
    return ExistenceVerdict.from_eigenvalues(1.0 + math.sqrt(c) * graph_spectrum(g).eigenvalues)


def _gram_verdict(a: np.ndarray) -> ExistenceVerdict:
    """The verdict at ``PSD_TOL`` that :func:`~angleset.spectra.eigenvalues`
    gives on the assembled Gram matrix ``a``.

    The certificate of :func:`_cholesky` at floor ``PSD_TOL`` decides a
    definite matrix with no solve; if it fails, ``eigenvalues`` decides. A
    per-edge :func:`existence` returns this verdict, and
    :func:`~angleset.configurations.construct_configuration` factors by it.
    """
    if _certified(a, PSD_TOL):
        return ExistenceVerdict(True, a.shape[0], None)
    return _eigen_verdict(a)


def _eigen_verdict(a: np.ndarray) -> ExistenceVerdict:
    """The verdict of :func:`~angleset.spectra.eigenvalues` on the Gram
    matrix ``a``, with its least eigenvalue. Its ``exists`` and ``rank`` are
    those of :func:`_gram_verdict` on ``a``: a matrix that the certificate
    decides has every eigenvalue above ``PSD_TOL`` by more than LAPACK's
    error bound. CLI ``exists`` and ``sweep`` print this verdict."""
    return ExistenceVerdict.from_eigenvalues(eigenvalues(a).eigenvalues)


class SigmaInterval(_ValueRecord):
    """Admissible parameter interval ``(0, upper]``; intervals compare and
    hash by ``upper``."""

    __slots__ = ("upper",)
    upper: float

    def __init__(self, upper: float) -> None:
        if not (isinstance(upper, (int, float)) and 0.0 < upper <= 1.0):
            raise ValueError(f"interval endpoint must lie in (0, 1], got {_shown(upper)}")
        super().__init__(upper)


def sigma_tree(g: Graph) -> SigmaInterval:
    """Admissible interval (0, 1/r^2] of a tree with at least one edge.

    A shape that :func:`~angleset.classify.classify_structure` recognises
    gets its exact endpoint from its Coxeter number (1/4 on an extended
    shape) and solves nothing, so it stays allocation-free past
    ``MAX_VERTICES``. Any other tree takes r from
    :func:`~angleset.spectra.graph_index`.
    """
    if not is_tree(g):
        raise ValueError("admissible-interval formula applies to trees only")
    if g.n < 2:
        raise ValueError("tree must have at least one edge")
    upper = classify_structure(g).components[0].endpoint
    if upper is None:
        r = graph_index(g)
        upper = min(1.0, 1.0 / (r * r))
    return SigmaInterval(upper)


def sigma_cycle(n: int) -> SigmaInterval:
    """Admissible interval of the cycle on ``n >= 3`` vertices; ``n`` must
    be a Python or numpy integer, not ``bool``, or ``ValueError`` is raised.

    Equals the interval of the path on ``n - 1`` vertices: the endpoint is
    1/(4cos^2(pi/n)), strictly above 1/4, by the rule of that path's
    Coxeter number h = n. Note this is not the semidefiniteness threshold
    of the cycle's own Gram matrix, which caps at 1/4; the two agree only on
    trees.
    """
    if type(n) is not int:
        n = _integer(n, "cycle length")
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {_shown(n)}")
    # cos(pi/n) rounds to 1.0 for every n >= 10**9, so the endpoint is
    # exactly 1/4 there; pi / n overflows once n passes the float range.
    if n >= 10**9:
        return SigmaInterval(0.25)
    return SigmaInterval(_coxeter_endpoint(n))


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
