"""Explicit configurations of lines with prescribed pairwise angles.

A configuration assigns to each vertex a unit vector v_i (equivalently the
rank-1 orthogonal projection P_i = v_i v_i^T onto its span) such that adjacent
vertices meet at the prescribed angle, arccos(sqrt(tau)), and non-adjacent
ones are orthogonal. Construction takes the PSD verdict a per-edge
:func:`existence` gives, on the same assembled Gram matrix, and only
factors: by Cholesky at full rank, and otherwise through the eigenpairs
that the verdict's rank keeps. Verification reads every defining relation
off the vectors' Gram matrix V V^T, through one residual matrix, and
reports worst-case Frobenius residuals; the vectors of a construction come
read-only with that product, so verifying them forms it no second time.

Lines are defined only up to a rotation of the space, so construction returns
them in one canonical frame: vector i has no component beyond coordinate i
and a non-negative i-th coordinate. For a positive definite Gram matrix that
is its Cholesky factor, which is sparse on sparse graphs; a singular one is
rotated into the same frame by a QR factorisation, so it does not depend on
the basis LAPACK picks inside a repeated eigenvalue.

A configuration document, the JSON form of the lines, their graph and tau,
is read by :func:`load_configuration`, which checks only the document's own
shape; each field is judged by the gate of the record it fills.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .admissible import PSD_TOL, TauLike, TauWeighting, _cholesky, _gram_verdict, gram_matrix
from .graphs import Graph, _Record, _shown, _ValueRecord, check_vertex_count
from .spectra import eigenpairs

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
    row i - 1 for vertex i. Configurations compare by identity.

    This constructor is the one gate for vector entries. Any real 2-D array,
    or sequence of rows, of finite integers and floats is stored as a float
    array, with no copy of a float one. Everything else raises
    ``ValueError``: entries of any other kind (complex, bool, text, None,
    Python objects), also one ``True`` among numbers in rows, which numpy
    would read as 1; rows of unequal length; input that is not 2-D; no
    rows or no coordinates, as no unit vector lives in R^0; and a NaN, an
    infinity or an integer beyond the float range.

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
        if not isinstance(vectors, np.ndarray):
            vectors = _array_of_rows(vectors)
        # Tested before the conversion, which would drop the imaginary part
        # with a ComplexWarning, and read "1" as 1.0 and None as nan.
        if vectors.dtype.kind not in "iuf":
            kind = vectors.dtype.name.rstrip("0123456789")  # "str", not numpy's "str96"
            raise ValueError(f"vectors must be real numbers, got {kind} entries")
        vectors = vectors.astype(float, copy=False)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be a 2-D array of rows, got {vectors.ndim}-D")
        if not vectors.size:
            raise ValueError("vectors must have at least one row and one coordinate, "
                             f"got shape {vectors.shape}")
        if not np.isfinite(vectors).all():
            raise ValueError("vectors must be finite, got a NaN or infinite entry")
        super().__init__(vectors, _gram)

    @property
    def ambient_dim(self) -> int:
        """Dimension of the space the vectors live in."""
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        """Number of vertices covered."""
        return self.vectors.shape[0]


def _array_of_rows(rows) -> np.ndarray:
    """``rows`` as an array. The entries of a list or tuple of rows are
    walked for their types first: numpy reads ``True`` as 1 beside other
    numbers, and rows of Python ints and floats alone convert fastest with
    the float dtype given, which also reads an int past 64 bits."""
    types = set()
    if isinstance(rows, (list, tuple)):
        try:
            types = set(map(type, chain.from_iterable(rows)))
        except TypeError:  # a row that is a number: the shape check names it
            pass
    if bool in types or np.bool_ in types:
        raise ValueError("vectors must be real numbers, got bool entries")
    try:
        if types and types <= {int, float}:
            try:
                return np.array(rows, dtype=float)
            except TypeError:  # rows that are sets or dicts: numpy's own dtype names them
                pass
        return np.asarray(rows)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError("vectors must be a 2-D array of rows of equal length") from None
    except OverflowError:
        raise ValueError("vectors must be finite, got an integer past the float range") from None


def construct_configuration(g: Graph, tau: TauLike) -> SubspaceConfiguration:
    """Build a configuration realizing ``(g, tau)`` from the Gram matrix.

    Assemble the Gram matrix A once with
    :func:`~angleset.admissible.gram_matrix` and take the verdict at
    ``PSD_TOL`` of :func:`~angleset.admissible._gram_verdict` on it, the one
    a per-edge :func:`~angleset.admissible.existence` gives, for a constant
    tau too: the Cholesky certificate, and eigvalsh if it fails. Raises
    ``ValueError`` when the matrix is not positive semidefinite (no
    configuration exists), with eigvalsh's least eigenvalue in the message;
    a refusal computes no eigenvectors.

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
    a = gram_matrix(g, tau)
    verdict = _gram_verdict(a)
    if not verdict.exists:
        raise ValueError(
            "no configuration exists: Gram matrix has negative eigenvalue "
            f"{verdict.min_eigenvalue:.6e}"
        )
    vectors, dropped = _canonical_factor(a, verdict.rank)
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


def _canonical_factor(a: np.ndarray, rank: int) -> tuple[np.ndarray, float]:
    """Lower-trapezoidal V with a non-negative diagonal and ``rank`` columns
    whose V V^T is the PSD matrix ``a`` up to its eigenvalues past ``rank``,
    and the Frobenius norm of those dropped eigenvalues.

    At full rank V is the Cholesky factor, if Cholesky completes in
    rounding; a matrix the certificate proved definite always does (see
    :func:`~angleset.admissible._cholesky`). Otherwise the leading ``rank``
    eigenpairs of :func:`~angleset.spectra.eigenpairs`, scaled by
    sqrt(lambda), give a factor F, and with F^T = Q R (QR factorisation,
    rows of R signed so that its diagonal is non-negative) V is R^T:
    R^T R = F F^T, so the rotation changes neither the Gram matrix nor the
    rank, and R^T does not depend on the basis LAPACK picks inside a
    repeated eigenvalue. ``rank`` comes from eigvalsh; eigh's eigenvalues
    lie within twice their a-priori bound ``residual_bound`` of those.
    """
    if rank == a.shape[0]:
        factor = _cholesky(a, 1.0)
        if factor is not None:
            return factor, 0.0
    spectrum = eigenpairs(a)
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


def _weighted_edge(triple) -> tuple[tuple, object]:
    """The ``((i, j), tau)`` item of a document's ``[i, j, tau]`` triple."""
    if type(triple) is not list or len(triple) != 3:
        raise ValueError(f"per-edge tau must be [i, j, tau] triples, got {_shown(triple)}")
    i, j, value = triple
    return (i, j), value


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

    The document's own rules: ``doc`` is an object with the four fields,
    ``ambient_dim`` an integer that matches the rows, ``graph`` a list,
    ``tau`` not null and, as a list, ``[i, j, tau]`` triples, and more than
    ``MAX_VERTICES`` vectors raise :class:`~angleset.graphs.GraphError`
    before any row is read. Every other rule is the gate of the record a
    field fills: ``vectors`` go to :class:`SubspaceConfiguration`, the pairs
    of ``graph`` to ``Graph(n, pairs)`` with n the number of vectors, and
    ``tau`` to :class:`~angleset.admissible.TauWeighting`, as the constant or
    the per-edge items. Each raises ``ValueError`` on bad input.
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
        raise ValueError(f"ambient_dim must be an integer, got {_shown(ambient)}")
    if type(vectors) is list:
        check_vertex_count(len(vectors))
    config = SubspaceConfiguration(vectors)
    if config.ambient_dim != ambient:
        raise ValueError(
            f"ambient_dim {_shown(ambient)} does not match vector length {config.ambient_dim}"
        )
    if type(edge_data) is not list:
        raise ValueError(f"graph must be a list of [i, j] pairs, got {type(edge_data).__name__}")
    g = Graph(config.size, edge_data)
    if type(tau_data) is list:
        return config, g, TauWeighting(per_edge=map(_weighted_edge, tau_data))
    if tau_data is None:
        raise ValueError("tau must be a number or a list of [i, j, tau] triples, got None")
    return config, g, TauWeighting(constant=tau_data)
