"""Explicit configurations of lines with prescribed pairwise angles.

A configuration assigns to each vertex a unit vector v_i (equivalently the
rank-1 orthogonal projection P_i = v_i v_i^T onto its span) such that adjacent
vertices meet at the prescribed angle, arccos(sqrt(tau)), and non-adjacent
ones are orthogonal. Construction takes the PSD verdict a per-edge
:func:`existence` gives, on the same assembled Gram matrix, and only
factors: by Cholesky at full rank, and otherwise through the eigenpairs
that the verdict's rank keeps, from the one eigensolve that gave the
verdict. Verification reads every defining relation off the vectors' Gram
matrix V V^T, through one residual matrix, and reports worst-case
Frobenius residuals; the vectors of a construction come read-only with
that product, so verifying them forms it no second time.

Lines are defined only up to a rotation of the space, so construction returns
them in one canonical frame: vector i has no component beyond coordinate i
and a non-negative i-th coordinate. For a positive definite Gram matrix that
is its Cholesky factor, which is sparse on sparse graphs; a singular one is
rotated into the same frame by a QR factorisation, so it does not depend on
the basis LAPACK picks inside a repeated eigenvalue.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .admissible import PSD_TOL, TauLike, TauWeighting, _cholesky, _gram_verdict
from .graphs import Graph, _Record, _ValueRecord, check_vertex_count
from .spectra import Spectrum

__all__ = [
    "SubspaceConfiguration",
    "VERIFY_TOL",
    "VerificationReport",
    "configuration_document",
    "construct_configuration",
    "load_configuration",
    "verify_configuration",
]

VERIFY_TOL = 1e-8


class SubspaceConfiguration(_Record):
    """One vector per vertex: ``vectors`` has shape (n, ambient_dim), with
    row i - 1 for vertex i. Any real 2-D array or list of rows is stored as
    a float array, with no copy of a float one; complex or non-2-D input
    raises ``ValueError``. Configurations compare by identity.

    The projection of vertex i, v_i v_i^T, is not stored: every relation that
    :func:`verify_configuration` checks follows from the inner products.
    ``_gram`` is V V^T when :func:`construct_configuration` formed it for its
    own check; it makes ``vectors`` read-only then, so the product cannot go
    stale, and :func:`verify_configuration` reads it instead of forming it
    again.
    """

    __slots__ = ("vectors", "_gram")
    vectors: np.ndarray
    _gram: np.ndarray | None

    def __init__(self, vectors: np.ndarray, _gram: np.ndarray | None = None) -> None:
        # Tested before the conversion, which would drop the imaginary part
        # with a ComplexWarning.
        if np.iscomplexobj(vectors):
            raise ValueError("vectors must be real, got complex entries")
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-D array of rows, got {vectors.ndim}-D")
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_gram", _gram)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the space the vectors live in."""
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        """Number of vertices covered."""
        return self.vectors.shape[0]


def construct_configuration(g: Graph, tau: TauLike) -> SubspaceConfiguration:
    """Build a configuration realizing ``(g, tau)`` from the Gram matrix.

    Assemble the Gram matrix A once and take the verdict at ``PSD_TOL`` of
    :func:`~angleset.admissible._gram_verdict` on it, the one a per-edge
    :func:`~angleset.admissible.existence` gives, for a constant tau too.
    The Cholesky certificate comes first; if it fails, A is solved once by
    :func:`~angleset.spectra.eigenpairs` for the lines, and eigvalsh decides
    refusals and cases with an eigenvalue within twice the solvers' error
    bound of a cut. Raises ``ValueError`` when the matrix is not positive
    semidefinite (no configuration exists), with eigvalsh's least
    eigenvalue in the message.

    The vectors come in the canonical frame: row i is zero beyond column i
    and has a non-negative i-th entry. When the verdict's rank is n the
    vectors are the Cholesky factor of A (see
    :func:`~angleset.admissible._cholesky`). A singular Gram matrix (the
    endpoint cases), or a definite one that Cholesky rejects in rounding, is
    factored through its eigenpairs and one QR factorisation. Entries
    within n * eps of zero (machine epsilon, the rounding level of a unit
    row) are set to exactly 0.0, which moves no vector by more than that.

    The vectors' Gram matrix V V^T differs from the target by exactly the
    dropped eigenvalues, ``||lambda_dropped||_2`` in Frobenius norm, in exact
    arithmetic (none for Cholesky); each of them lies within ``PSD_TOL`` of
    zero. The check, made on the final vectors, allows that much plus
    ``PSD_TOL`` for rounding in the solve, the rotation and the product (at
    most 3e-14 in trials up to n = 96), and raises ``RuntimeError`` past it.
    The vectors are returned read-only, with that product, which
    :func:`verify_configuration` reads instead of forming it again.
    """
    verdict, a, spectrum = _gram_verdict(g, TauWeighting.of(tau), eigenvectors=True)
    if not verdict.exists:
        raise ValueError(
            "no configuration exists: Gram matrix has negative eigenvalue "
            f"{verdict.min_eigenvalue:.6e}"
        )
    vectors, dropped = _canonical_factor(a, verdict.rank, spectrum)
    vectors[np.abs(vectors) <= g.n * np.finfo(float).eps] = 0.0
    gram = vectors @ vectors.T
    vectors.flags.writeable = gram.flags.writeable = False
    deviation = float(np.linalg.norm(gram - a))
    allowed = dropped + PSD_TOL
    if deviation > allowed:
        raise RuntimeError(
            f"Gram factorization off by {deviation:.3e}, above the dropped "
            f"eigenvalues plus rounding, {allowed:.3e}"
        )
    return SubspaceConfiguration(vectors, gram)


def _canonical_factor(a: np.ndarray, rank: int, spectrum: Spectrum | None
                      ) -> tuple[np.ndarray, float]:
    """Lower-trapezoidal V with a non-negative diagonal and ``rank`` columns
    whose V V^T is the PSD matrix ``a`` up to its eigenvalues past ``rank``,
    and the Frobenius norm of those dropped eigenvalues.

    At full rank V is the Cholesky factor. Otherwise the leading ``rank``
    eigenpairs of ``spectrum``, the :func:`~angleset.spectra.eigenpairs`
    of ``a``, scaled by sqrt(lambda), give a factor F, and with F^T = Q R
    (QR factorisation, rows of R signed so that its diagonal is
    non-negative) V is R^T: R^T R = F F^T, so the rotation changes neither
    the Gram matrix nor the rank, and R^T does not depend on the basis
    LAPACK picks inside a repeated eigenvalue. ``spectrum`` is ``None``
    only for a matrix the certificate proved definite, which Cholesky
    factors (see :func:`~angleset.admissible._cholesky`).
    """
    if rank == a.shape[0]:
        factor = _cholesky(a, 1.0)
        if factor is not None:
            return factor, 0.0
        if spectrum is None:  # the certificate rules this out
            raise np.linalg.LinAlgError("certified Gram matrix has no Cholesky factor")
    evals = spectrum.eigenvalues
    factor = spectrum.eigenvectors[:, :rank] * np.sqrt(evals[:rank])
    r = np.linalg.qr(factor.T, mode="r")
    r *= np.copysign(1.0, r.diagonal())[:, None]
    return np.ascontiguousarray(r.T), float(np.linalg.norm(evals[rank:]))


class VerificationReport(_ValueRecord):
    """Worst-case Frobenius residuals of every defining relation.

    ``idempotency`` covers P_i^2 = P_i for each vertex; ``braid`` covers
    P_i P_j P_i = tau_ij P_i over both orderings of every edge;
    ``orthogonality`` covers P_i P_j = 0 over non-adjacent pairs; and ``gram``
    is the deviation of |V V^T|, entrywise, from the target Gram matrix. The
    report passes when the worst of them is at most ``VERIFY_TOL``.
    Reports compare and hash by their four residuals.
    """

    __slots__ = ("idempotency", "braid", "orthogonality", "gram")
    idempotency: float
    braid: float
    orthogonality: float
    gram: float

    def __init__(self, idempotency: float, braid: float, orthogonality: float,
                 gram: float) -> None:
        object.__setattr__(self, "idempotency", idempotency)
        object.__setattr__(self, "braid", braid)
        object.__setattr__(self, "orthogonality", orthogonality)
        object.__setattr__(self, "gram", gram)

    @property
    def max_residual(self) -> float:
        return max(self.idempotency, self.braid, self.orthogonality, self.gram)

    @property
    def passed(self) -> bool:
        return self.max_residual <= VERIFY_TOL

    def as_dict(self) -> dict:
        return {
            "idempotency": self.idempotency,
            "braid": self.braid,
            "orthogonality": self.orthogonality,
            "gram": self.gram,
            "tol": VERIFY_TOL,
            "passed": self.passed,
        }


def verify_configuration(
    config: SubspaceConfiguration,
    g: Graph,
    tau: TauLike,
) -> VerificationReport:
    """Recompute every relation of the configuration against ``(g, tau)``.

    With P_i = v_i v_i^T and G = V V^T, every residual is a scalar times a
    rank-1 matrix of known Frobenius norm, ||P_i|| = g_ii:

    - P_i^2 - P_i = (g_ii - 1) P_i
    - P_i P_j P_i - tau_ij P_i = (g_ij^2 - tau_ij) P_i
    - ||P_i P_j|| = ||P_j P_i|| = |g_ij| sqrt(g_ii g_jj)

    so the one product G gives the whole report, judged against the fixed
    ``VERIFY_TOL``. A configuration from :func:`construct_configuration`
    brings G along, read-only.

    Every residual is read from one matrix R, the entrywise |G| less 1 on
    its diagonal and less sqrt(tau_ij) on its edges, and from G's diagonal
    and edge entries: ``gram`` is ||R||, the diagonal of R is g_ii - 1, and
    R scaled by sqrt(g_ii g_jj) in place, its diagonal and edges then
    zeroed, holds the orthogonality residuals. No target matrix is built.
    Lines, not signed vectors, are judged: negating v_i changes no residual.

    An entry as large as 1e160 is finite but overflows these products; any
    overflow, or a NaN, raises ``ValueError`` ("cannot verify: ...").
    """
    if config.size != g.n:
        raise ValueError(
            f"configuration covers {config.size} vertices, graph has {g.n}"
        )
    i, j, t = TauWeighting.of(tau).edge_arrays(g)
    try:
        with np.errstate(over="raise", invalid="raise"):
            gram = config._gram
            if gram is None:
                gram = config.vectors @ config.vectors.T
            sq = gram.diagonal()
            on_edges = gram[i, j]
            res = np.abs(gram, order="C")
            diag = res.ravel()[::g.n + 1]  # a view: res is C-contiguous
            diag -= 1.0
            root = np.sqrt(t)
            res[i, j] -= root
            res[j, i] -= root
            gram_dev = np.linalg.norm(res)
            idem = (np.abs(diag) * sq).max()
            braid = (np.abs(on_edges ** 2 - t) * np.maximum(sq[i], sq[j])).max(initial=0.0)
            scale = sq[:, None] * sq
            res *= np.sqrt(scale, out=scale)
            diag[:] = 0.0
            res[i, j] = res[j, i] = 0.0
            orth = res.max(initial=0.0)
            residuals = (float(idem), float(braid), float(orth), float(gram_dev))
    except FloatingPointError as exc:  # finite entries whose products overflow
        raise ValueError(f"cannot verify: {exc}") from None
    # A NaN raises no floating-point error, but it always reaches its g_ii
    # and so the idempotency residual.
    if not all(map(math.isfinite, residuals)):
        raise ValueError("cannot verify: a residual is not finite")
    return VerificationReport(*residuals)


def _tau_to_json(w: TauWeighting):
    if w.constant is not None:
        return w.constant
    return [[i, j, value] for (i, j), value in sorted(w.per_edge.items())]


def _labeled(item, length: int) -> bool:
    """Whether ``item`` is a list of ``length`` entries whose first two are
    integer vertex labels (``type`` rules out JSON's ``true`` and ``1.0``)."""
    return (type(item) is list and len(item) == length
            and type(item[0]) is int and type(item[1]) is int)


def _tau_from_json(data) -> TauWeighting:
    if type(data) in (int, float):
        return TauWeighting(constant=data)
    if type(data) is list and all(_labeled(t, 3) and type(t[2]) in (int, float) for t in data):
        return TauWeighting(per_edge=[((i, j), v) for i, j, v in data])
    raise ValueError(f"cannot read tau from {data!r}: need a number or [i, j, tau] triples")


_MALFORMED_GRAPH = "graph must be a list of [i, j] integer label pairs"


def _graph_from_json(data, n: int) -> Graph:
    """The graph on ``n`` vertices of a document's ``graph`` list.

    The list and every pair in it are checked for their JSON shape first,
    so a malformed pair anywhere is reported before anything else. The
    pairs then go to ``Graph(n, data)``, which names the first loop or
    repeated edge in list order, then an edge out of range.
    """
    if type(data) is not list:
        raise ValueError(_MALFORMED_GRAPH)
    if not all(_labeled(e, 2) for e in data):
        raise ValueError(_MALFORMED_GRAPH)
    return Graph(n, data)


def configuration_document(
    config: SubspaceConfiguration,
    g: Graph,
    tau: TauLike,
    report: VerificationReport | None = None,
) -> dict:
    """JSON-ready document with the configuration, its graph and parameters."""
    doc = {
        "ambient_dim": config.ambient_dim,
        "vectors": config.vectors.tolist(),
        "tau": _tau_to_json(TauWeighting.of(tau)),
        "graph": [[i, j] for i, j in sorted(g.edges)],
    }
    if report is not None:
        doc["report"] = report.as_dict()
    return doc


def load_configuration(doc: dict) -> tuple[SubspaceConfiguration, Graph, TauWeighting]:
    """Rebuild a configuration from its exported document.

    The graph's vertex count is the number of vectors. ``doc`` must be an
    object, ``ambient_dim`` an integer, ``graph`` a list of integer pairs,
    ``vectors`` a list of rows of finite numbers and a per-edge ``tau`` a
    list of ``[i, j, tau]`` triples; anything else raises ``ValueError``.
    More than ``MAX_VERTICES`` vectors raise
    :class:`~angleset.graphs.GraphError` before any row is read.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"configuration document must be a JSON object, got {type(doc).__name__}"
        )
    try:
        vectors = doc["vectors"]
        tau_data = doc["tau"]
        edge_data = doc["graph"]
        ambient = doc["ambient_dim"]
    except KeyError as exc:
        raise ValueError(f"configuration document missing field: {exc}") from None
    if type(ambient) is not int:
        raise ValueError(f"ambient_dim must be an integer, got {ambient!r}")
    if not vectors:
        raise ValueError("configuration document has no vectors")
    if type(vectors) is list:
        check_vertex_count(len(vectors))
    # ``type`` rules out a flat row, a bare number, and the strings and
    # ``true`` that a float conversion would accept.
    if (type(vectors) is not list or not all(type(row) is list for row in vectors)
            or not set(map(type, chain.from_iterable(vectors))) <= {int, float}):
        raise ValueError("cannot read vectors: need a list of rows of numbers")
    try:
        rows = np.array(vectors, dtype=float)
    except (ValueError, OverflowError) as exc:  # rows of unequal length, huge ints
        raise ValueError(f"cannot read vectors: {exc}") from None
    if not np.isfinite(rows).all():  # json reads NaN, Infinity and 1e400
        raise ValueError("cannot read vectors: every entry must be finite")
    config = SubspaceConfiguration(rows)
    if config.ambient_dim != ambient:
        raise ValueError(
            f"ambient_dim {ambient} does not match vector length {config.ambient_dim}"
        )
    return config, _graph_from_json(edge_data, config.size), _tau_from_json(tau_data)
