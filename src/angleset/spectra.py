"""Dense symmetric eigensolvers and graph-spectrum quantities.

Three routes, one job each. Adjacency spectra come from
:func:`eigen_symmetric`, a cyclic Jacobi rotation scheme: rotations sweep the
strict upper triangle in row order until the off-diagonal Frobenius norm drops
below ``DEFAULT_TOL`` times the Frobenius norm of the input. That is
unconditionally stable on symmetric matrices, but it is pure Python and cubic
in n per sweep: on a 2-vCPU machine the adjacency matrix of a random graph
takes about 0.09 ms at n = 8, 5 ms at n = 20 and 0.1 s at n = 50 to solve
(``bench/README.md``). Gram matrices are solved by :func:`eigenvalues`
(LAPACK, no eigenvectors) for the verdict that the Cholesky certificate
leaves open, per edge and in
:func:`~angleset.configurations.construct_configuration` at any tau; a
certified verdict solves nothing. :func:`eigenpairs` runs only in
``construct_configuration``, after that verdict, to factor a singular Gram
matrix (or a definite one that Cholesky rejects in rounding). All three
take their input through one gate, :func:`_symmetric`.

The Cholesky certificate that spares these solves is
:func:`~angleset.admissible._cholesky`; this module's a-priori bounds,
:func:`_lapack_bound` and :func:`_jacobi_bound`, set its floor and shift.

A graph's adjacency spectrum is solved once per :class:`Graph` instance and
kept on it, so the index, the least eigenvalue and every constant-tau Gram
spectrum ``1 + sqrt(tau) * spec(A)`` of that graph share one solve;
``existence`` reads it, with no certificate, whenever it is there. A
constant-tau verdict the certificate decides neither solves nor keeps it.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, _Record, adjacency_matrix

__all__ = [
    "ConvergenceError",
    "DEFAULT_TOL",
    "MAX_SWEEPS",
    "Spectrum",
    "eigen_symmetric",
    "eigenpairs",
    "eigenvalues",
    "graph_index",
    "graph_spectrum",
]

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
_EPS = float(np.finfo(float).eps)


class ConvergenceError(RuntimeError):
    """Sweep limit exhausted before the off-diagonal norm reached its target."""

    def __init__(self, off_norm: float, target: float, sweeps: int):
        super().__init__(
            f"no convergence after {sweeps} sweeps: off-diagonal norm "
            f"{off_norm:.3e} above target {target:.3e}"
        )
        self.off_norm = off_norm
        self.target = target
        self.sweeps = sweeps


class Spectrum(_Record):
    """Eigenvalues sorted descending, with optional orthonormal eigenvectors.

    ``eigenvectors`` is set only by :func:`eigenpairs`, which only
    :func:`~angleset.configurations.construct_configuration` calls, for a
    Gram matrix whose verdict keeps fewer than n dimensions or that
    Cholesky rejects, and holds the k-th eigenvector in column k; within a
    degenerate eigenspace the basis is whatever LAPACK produces, so tests
    of the eigenvectors themselves should only rely on subspace-level
    statements. (The lines of
    ``construct_configuration`` do not depend on that basis: they are rotated
    into a canonical frame.) ``residual_bound`` bounds every eigenvalue
    error: for :func:`eigen_symmetric` it is the final off-diagonal Frobenius
    norm, for the LAPACK routes :func:`eigenvalues` and :func:`eigenpairs`,
    per-edge Gram spectra included, the a-priori bound
    ``n * eps * ||m||_F``. Spectra compare by identity.
    """

    __slots__ = ("eigenvalues", "residual_bound", "eigenvectors")
    eigenvalues: np.ndarray
    residual_bound: float
    eigenvectors: np.ndarray | None

    def __init__(self, eigenvalues: np.ndarray, residual_bound: float,
                 eigenvectors: np.ndarray | None = None) -> None:
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "residual_bound", residual_bound)
        object.__setattr__(self, "eigenvectors", eigenvectors)

    @property
    def index(self) -> float:
        """Largest eigenvalue."""
        return float(self.eigenvalues[0])

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])


def _symmetric(m) -> tuple[np.ndarray, float]:
    """``m`` as a float array and its Frobenius norm, on which every route's
    error bound rests; ``ValueError`` unless square, finite, of a norm
    within the float range, and symmetric."""
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        fro = float(np.linalg.norm(mat))
    if not math.isfinite(fro):
        if not np.isfinite(mat).all():
            raise ValueError("matrix has a non-finite entry")
        raise ValueError("matrix Frobenius norm overflows the float range")
    if not np.array_equal(mat, mat.T):
        raise ValueError("matrix is not symmetric")
    return mat, fro


def eigen_symmetric(m) -> Spectrum:
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal Frobenius norm is at most
    ``DEFAULT_TOL * ||m||_F``. Raises :class:`ConvergenceError` if
    ``MAX_SWEEPS`` sweeps run first and ``ValueError`` for input that
    :func:`_symmetric` refuses.
    """
    mat, fro = _symmetric(m)
    n = mat.shape[0]
    a: list[list[float]] = mat.tolist()
    target = DEFAULT_TOL * fro
    # Entries at or below `skip` cannot push the off-norm above target even if
    # every off-diagonal slot held one, so rotating on them is wasted work.
    skip = target / (2.0 * n)

    def off_norm() -> float:
        s2 = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                s2 += ai[j] * ai[j]
        return math.sqrt(2.0 * s2)

    off = off_norm()
    sweeps = 0
    while off > target:
        if sweeps == MAX_SWEEPS:
            raise ConvergenceError(off, target, sweeps)
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if -skip <= apq <= skip:
                    continue
                aq = a[q]
                app = ap[p]
                aqq = aq[q]
                diff = aqq - app
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff  # tan is tiny; avoid overflow in theta**2
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                ap[p] = app - t * apq
                aq[q] = aqq + t * apq
                ap[q] = 0.0
                aq[p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    ai = a[i]
                    x = ai[p]
                    y = ai[q]
                    xr = c * x - s * y
                    yr = s * x + c * y
                    ai[p] = xr
                    ai[q] = yr
                    ap[i] = xr
                    aq[i] = yr
        sweeps += 1
        off = off_norm()

    eigenvalues = np.array(sorted((a[i][i] for i in range(n)), reverse=True))
    return Spectrum(eigenvalues, residual_bound=off)


def _lapack_bound(n: int, fro: float) -> float:
    """A-priori error bound ``n * eps * fro`` on every eigenvalue LAPACK
    computes for a symmetric n x n matrix M of Frobenius norm ``fro``.

    Its symmetric solvers are backward stable: the computed eigenvalues are
    exact for some M + E with ``||E||_2`` a small multiple of
    ``eps * ||M||_2``, and by Weyl's inequality no eigenvalue moves by more
    than ``||E||_2``. Taking n as the multiple and the Frobenius norm, which
    is at least the spectral norm and which :func:`_symmetric` computes
    anyway, gives a bound that costs no product.
    """
    return n * _EPS * fro


def _jacobi_bound(n: int, fro: float) -> float:
    """A-priori error bound on every eigenvalue :func:`eigen_symmetric`
    computes for a symmetric n x n matrix of Frobenius norm ``fro``, known
    before any solve.

    Sweeps stop once the off-diagonal part is at most ``DEFAULT_TOL * fro``
    in Frobenius norm, and by Weyl's inequality the diagonal then lies
    within that of the spectrum of the rotated matrix. Each rotation is
    backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 19): its rounded result is an exact rotation of a
    matrix within c * eps * fro of the one it turned, and exact rotations
    keep the spectrum and the Frobenius norm. Take c = 12, which covers the
    two one-sided updates, the diagonal update and the zeroed pair with room
    to spare, and at most ``MAX_SWEEPS`` sweeps of n(n - 1)/2 rotations
    (past that, :class:`ConvergenceError` is raised and there is no
    eigenvalue to bound). The rounding then adds at most
    ``6 * MAX_SWEEPS * n * (n - 1) * eps * fro``, to first order: the
    product of the rotation count and c * eps stays below 1e-6 up to the
    2000 vertices of ``graphs.MAX_VERTICES``.
    """
    return (DEFAULT_TOL + 6.0 * MAX_SWEEPS * n * (n - 1) * _EPS) * fro


def eigenvalues(m) -> Spectrum:
    """Eigenvalues of a dense symmetric matrix from LAPACK
    (``np.linalg.eigvalsh``), descending, with no eigenvectors.

    ``residual_bound`` is the a-priori bound ``n * eps * ||m||_F`` (see
    :func:`_lapack_bound`). Raises ``ValueError`` for input that
    :func:`_symmetric` refuses.
    """
    mat, fro = _symmetric(m)
    return Spectrum(np.linalg.eigvalsh(mat)[::-1], residual_bound=_lapack_bound(len(mat), fro))


def eigenpairs(m) -> Spectrum:
    """Eigenvalues and orthonormal eigenvectors of a dense symmetric matrix,
    from LAPACK (``np.linalg.eigh``), eigenvalues descending and eigenvector
    k in column k.

    ``residual_bound`` is the same a-priori bound as :func:`eigenvalues`
    gives. Raises ``ValueError`` for input that :func:`_symmetric` refuses.
    """
    mat, fro = _symmetric(m)
    evals, evecs = np.linalg.eigh(mat)
    return Spectrum(evals[::-1], residual_bound=_lapack_bound(len(mat), fro),
                    eigenvectors=evecs[:, ::-1])


def graph_spectrum(g: Graph) -> Spectrum:
    """Adjacency spectrum of ``g``, eigenvalues sorted descending.

    The spectrum is memoised on ``g`` itself, like its neighbour sets and its
    edge index, and its eigenvalue array is read-only; it lives and dies with
    the graph.
    """
    spectrum = _memoised_spectrum(g)
    if spectrum is None:
        spectrum = eigen_symmetric(adjacency_matrix(g))
        spectrum.eigenvalues.flags.writeable = False
        g.__dict__["_spectrum"] = spectrum
    return spectrum


def _memoised_spectrum(g: Graph) -> Spectrum | None:
    """The adjacency spectrum :func:`graph_spectrum` keeps on ``g``, if it
    has solved it."""
    return g.__dict__.get("_spectrum")


def graph_index(g: Graph) -> float:
    """Largest adjacency eigenvalue (0 for a single vertex)."""
    return graph_spectrum(g).index
