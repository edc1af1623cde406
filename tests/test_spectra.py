import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import angleset.spectra
from angleset import (
    ConvergenceError,
    Graph,
    adjacency_matrix,
    eigen_symmetric,
    eigenpairs,
    eigenvalues,
    generate_named,
    graph_index,
    graph_spectrum,
    parse_named_spec,
    tree_from_pruefer,
)
from charpoly import brackets_root, char_poly, square_free

# Characteristic polynomials (ascending coefficients, monic) computed by exact
# integer cofactor expansion; frozen here so a regression in either route shows.
FROZEN_CHARPOLYS = {
    "P2": [-1, 0, 1],
    "P4": [1, 0, -3, 0, 1],
    "C4": [0, 0, -4, 0, 1],
    "K1,4": [0, 0, 0, -4, 0, 1],
    "A5": [0, 3, 0, -4, 0, 1],
    "D5": [0, 2, 0, -4, 0, 1],
    "E6": [-1, 0, 5, 0, -5, 0, 1],
    "E~6": [0, -4, 0, 9, 0, -6, 0, 1],
}

FROZEN_SPECTRA = {
    "P2": [1.0, -1.0],
    "C4": [2.0, 0.0, 0.0, -2.0],
    "K1,4": [2.0, 0.0, 0.0, 0.0, -2.0],
    # x(x^2-1)^2(x^2-4): the extended E6 tree hits index 2 exactly
    "E~6": [2.0, 1.0, 1.0, 0.0, -1.0, -1.0, -2.0],
}


def graph_for(tag):
    return generate_named(parse_named_spec(tag))


def complete_graph(n):
    return Graph.from_edges([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


class TestEigenSymmetricInput:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigen_symmetric(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eigen_symmetric(m)

    def test_one_by_one(self):
        s = eigen_symmetric(np.array([[7.0]]))
        assert s.eigenvalues.tolist() == [7.0]

    def test_diagonal_needs_no_sweeps(self):
        s = eigen_symmetric(np.diag([3.0, -1.0, 2.0]))
        assert s.eigenvalues.tolist() == [3.0, 2.0, -1.0]

    def test_max_sweeps_exhausted(self, monkeypatch):
        monkeypatch.setattr(angleset.spectra, "MAX_SWEEPS", 0)
        m = adjacency_matrix(graph_for("A5")).astype(float)
        with pytest.raises(ConvergenceError) as exc:
            eigen_symmetric(m)
        assert exc.value.off_norm > exc.value.target


ROUTES = {"jacobi": eigen_symmetric, "eigvalsh": eigenvalues, "eigh": eigenpairs}


@pytest.mark.parametrize("solve", ROUTES.values(), ids=ROUTES.keys())
class TestSharedInputGate:
    """The three routes share one gate. It refuses what no error bound
    covers, since each bound is a multiple of the Frobenius norm, with its
    own message and no warning (tier-1 makes a RuntimeWarning an error)."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refuses_an_entry_that_is_not_finite(self, solve, bad):
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            solve([[bad]])
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            solve([[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
            solve([[1.0, bad], [0.0, 1.0]])  # reported before the asymmetry

    @pytest.mark.parametrize("big", [1e160, 1e300, -1e200])
    def test_refuses_a_norm_beyond_the_float_range(self, solve, big):
        with pytest.raises(ValueError, match="^matrix Frobenius norm overflows the float range$"):
            solve([[0.0, big], [big, 0.0]])

    def test_keeps_a_large_norm_within_the_range(self, solve):
        s = solve([[0.0, 1e153], [1e153, 0.0]])
        assert s.eigenvalues.tolist() == pytest.approx([1e153, -1e153], rel=1e-12)
        assert math.isfinite(s.residual_bound)


class TestFrozenSpectra:
    @pytest.mark.parametrize("tag,expected", sorted(FROZEN_SPECTRA.items()))
    def test_known_eigenvalues(self, tag, expected):
        got = graph_spectrum(graph_for(tag)).eigenvalues
        assert np.allclose(got, expected, atol=1e-12)

    def test_complete_graph_k4(self):
        s = graph_spectrum(complete_graph(4))
        assert np.allclose(s.eigenvalues, [3.0, -1.0, -1.0, -1.0], atol=1e-12)

    def test_path_eigenvalues_are_cosines(self):
        # 2 cos(k pi / (n+1)) for k = 1..n, here n = 4
        got = graph_spectrum(graph_for("P4")).eigenvalues
        want = [2 * math.cos(k * math.pi / 5) for k in (1, 2, 3, 4)]
        assert np.allclose(got, want, atol=1e-12)

    def test_e6_index_closed_form(self):
        assert graph_index(graph_for("E6")) == pytest.approx(2 * math.cos(math.pi / 12), abs=1e-12)

    def test_index_and_min_accessors(self):
        s = graph_spectrum(graph_for("C4"))
        assert s.index == pytest.approx(2.0, abs=1e-12)
        assert s.min_eigenvalue == pytest.approx(-2.0, abs=1e-12)

    def test_edgeless_graph(self):
        s = graph_spectrum(Graph(3, frozenset()))
        assert s.eigenvalues.tolist() == [0.0, 0.0, 0.0]


class TestAgainstCharpolyOracle:
    @pytest.mark.parametrize("tag,coeffs", sorted(FROZEN_CHARPOLYS.items()))
    def test_frozen_charpolys(self, tag, coeffs):
        assert char_poly(adjacency_matrix(graph_for(tag)).tolist()) == coeffs

    def test_complete_graph_charpoly(self):
        # (x - 3)(x + 1)^3
        assert char_poly(adjacency_matrix(complete_graph(4)).tolist()) == [-3, -8, -6, 0, 1]

    @pytest.mark.parametrize("tag", sorted(FROZEN_CHARPOLYS))
    def test_every_computed_eigenvalue_brackets_an_exact_root(self, tag):
        g = graph_for(tag)
        p = square_free(char_poly(adjacency_matrix(g).tolist()))
        for lam in graph_spectrum(g).eigenvalues:
            assert brackets_root(p, lam), f"{tag}: {lam} is not within 1e-8 of a root"

    @pytest.mark.parametrize("tag", sorted(FROZEN_CHARPOLYS))
    def test_lapack_eigenvalues_lie_within_their_bound_of_an_exact_root(self, tag):
        g = graph_for(tag)
        p = square_free(char_poly(adjacency_matrix(g).tolist()))
        s = eigenvalues(adjacency_matrix(g))
        radius = Fraction(s.residual_bound)
        assert 0 < radius < Fraction(1, 10**13)
        for lam in s.eigenvalues:
            assert brackets_root(p, lam, radius), f"{tag}: {lam} is not within {radius} of a root"


class TestEigenvectors:
    @pytest.mark.parametrize("tag", ["P4", "C4", "E6", "E~6", "K1,4"])
    def test_diagonalization_residual(self, tag):
        m = adjacency_matrix(graph_for(tag)).astype(float)
        s = eigenpairs(m)
        v = s.eigenvectors
        assert np.max(np.abs(m @ v - v * s.eigenvalues)) < 1e-10
        assert np.max(np.abs(v.T @ v - np.eye(m.shape[0]))) < 1e-12
        assert np.linalg.norm(m @ v - v * s.eigenvalues) <= s.residual_bound
        assert s.residual_bound < 1e-13

    def test_input_matrix_not_mutated(self):
        m = adjacency_matrix(graph_for("C4")).astype(float)
        before = m.copy()
        eigen_symmetric(m)
        eigenpairs(m)
        eigenvalues(m)
        assert np.array_equal(m, before)

    def test_rejects_asymmetric(self):
        for solve in (eigenpairs, eigenvalues):
            with pytest.raises(ValueError, match="symmetric"):
                solve(np.array([[1.0, 2.0], [2.0 + 1e-14, 1.0]]))
            with pytest.raises(ValueError, match="square"):
                solve(np.zeros((2, 3)))

    def test_eigenvalues_only_from_jacobi(self):
        m = adjacency_matrix(graph_for("P4")).astype(float)
        assert eigen_symmetric(m).eigenvectors is None
        assert graph_spectrum(graph_for("P4")).eigenvectors is None

    @pytest.mark.parametrize("tag", ["P4", "C4", "E~6", "K1,4"])
    def test_eigenvalues_without_vectors_match_eigenpairs(self, tag):
        m = adjacency_matrix(graph_for(tag)).astype(float)
        values, pairs = eigenvalues(m), eigenpairs(m)
        assert values.eigenvectors is None
        assert np.all(np.diff(values.eigenvalues) <= 0)
        bound = m.shape[0] * np.finfo(float).eps * np.linalg.norm(m)
        assert values.residual_bound == pairs.residual_bound == bound
        assert np.max(np.abs(values.eigenvalues - pairs.eigenvalues)) <= bound

    @pytest.mark.parametrize(
        "corpus_fixture", ["boundary_trees", "cycle_corpus", "random_connected_corpus"]
    )
    def test_lapack_agrees_with_jacobi(self, request, corpus_fixture):
        graphs = request.getfixturevalue(corpus_fixture)
        if corpus_fixture == "boundary_trees":
            graphs = [g for g, _, _ in graphs]
        worst = max(
            np.max(np.abs(eigenpairs(adjacency_matrix(g)).eigenvalues
                          - graph_spectrum(g).eigenvalues))
            for g in graphs
        )
        assert worst <= 1e-12


class TestResidualBound:
    def test_bound_scales_with_norm(self):
        m = 1e6 * adjacency_matrix(graph_for("P4")).astype(float)
        s = eigen_symmetric(m)
        assert s.residual_bound <= 1e-12 * math.sqrt(np.sum(m * m))
        assert np.allclose(s.eigenvalues, [2e6 * math.cos(k * math.pi / 5) for k in range(1, 5)])

    def test_descending_order(self):
        s = graph_spectrum(graph_for("E~6"))
        assert all(a >= b for a, b in zip(s.eigenvalues, s.eigenvalues[1:]))


@st.composite
def symmetric_int_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = st.integers(min_value=-5, max_value=5)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            m[i, j] = m[j, i] = draw(entries)
    return m


@given(symmetric_int_matrices())
@settings(max_examples=60, deadline=None)
def test_trace_identities(m):
    s = eigen_symmetric(m)
    assert np.sum(s.eigenvalues) == pytest.approx(np.trace(m), abs=1e-8)
    assert np.sum(s.eigenvalues**2) == pytest.approx(np.sum(m * m), abs=1e-7)


@given(symmetric_int_matrices(max_n=5))
@settings(max_examples=40, deadline=None)
def test_eigenpairs_reconstruct_the_matrix(m):
    s = eigenpairs(m)
    v = s.eigenvectors
    assert np.all(np.diff(s.eigenvalues) <= 0)
    assert np.max(np.abs(v @ np.diag(s.eigenvalues) @ v.T - m)) < 1e-9
    assert np.max(np.abs(v.T @ v - np.eye(m.shape[0]))) < 1e-12


def complete_bipartite(p, q):
    """K_{p,q}: parts ``1..p`` and ``p+1..p+q``."""
    return Graph.from_edges((i, p + j) for i in range(1, p + 1) for j in range(1, q + 1))


def test_bipartite_spectrum_is_symmetric(boundary_trees):
    # Bipartite by construction: trees, even cycles and complete bipartite
    # graphs.
    bipartite = [g for g, _r, _q in boundary_trees]
    bipartite += [generate_named(parse_named_spec(f"C{n}")) for n in range(4, 13, 2)]
    bipartite += [complete_bipartite(p, q) for p in range(1, 5) for q in range(p, 6)]
    for g in bipartite:
        ev = graph_spectrum(g).eigenvalues
        assert np.allclose(ev, -ev[::-1], atol=1e-10)
    assert len(bipartite) > 20  # the corpus should not silently lose its members


def test_odd_cycle_spectrum_is_not_symmetric():
    # The converse of the bipartite symmetry: an odd cycle has index 2 and
    # least eigenvalue 2 cos(4 pi / 5), so the symmetry check can fail.
    ev = graph_spectrum(generate_named(parse_named_spec("C5"))).eigenvalues
    assert not np.allclose(ev, -ev[::-1], atol=1e-10)
    assert math.isclose(min(ev), 2 * math.cos(4 * math.pi / 5), abs_tol=1e-12)


@st.composite
def pruefer_trees(draw, max_n=12):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seq = draw(st.lists(st.integers(1, n), min_size=n - 2, max_size=n - 2))
    return tree_from_pruefer(n, tuple(seq))


@given(pruefer_trees())
def test_tree_spectra_are_symmetric(g):
    ev = graph_spectrum(g).eigenvalues
    assert np.allclose(ev, -ev[::-1], atol=1e-10)
