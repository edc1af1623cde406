import math
import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import angleset.admissible
import angleset.configurations
import angleset.graphs
from angleset import (
    PSD_TOL,
    ExistenceVerdict,
    Graph,
    GraphError,
    NamedFamily,
    QuarterPosition,
    SigmaInterval,
    SubspaceConfiguration,
    TauWeighting,
    adjacency_matrix,
    classify_index,
    classify_structure,
    component_vertex_sets,
    construct_configuration,
    eigen_symmetric,
    eigenpairs,
    eigenvalues,
    existence,
    generate_named,
    graph_index,
    graph_spectrum,
    gram_matrix,
    is_connected,
    is_tree,
    parse_named_spec,
    sigma_cycle,
    sigma_tree,
    tree_from_pruefer,
    trichotomy,
    verify_configuration,
)
from angleset.spectra import _lapack_bound, _memoised_spectrum
from corpus import ENDPOINT_SHRINKS, cycle, pruefer_from_index, shuffled


def named(tag_or_family, size=None):
    return generate_named(NamedFamily(tag_or_family, size))


class TestTauWeighting:
    def test_constant(self):
        w = TauWeighting.of(0.3)
        assert w.constant == 0.3 and w.per_edge is None

    def test_per_edge_keys_are_canonicalized(self):
        w = TauWeighting.of({(3, 1): 0.2, (2, 3): 0.4})
        assert w.constant is None
        assert w.per_edge == {(1, 3): 0.2, (2, 3): 0.4}

    def test_same_edge_twice(self):
        with pytest.raises(ValueError, match="weighted twice"):
            TauWeighting.of({(1, 3): 0.2, (3, 1): 0.3})

    def test_exactly_one_flavor(self):
        with pytest.raises(ValueError, match="exactly one"):
            TauWeighting(constant=0.5, per_edge={(1, 2): 0.5})
        with pytest.raises(ValueError, match="exactly one"):
            TauWeighting()

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 + 1e-12, 2.0, float("nan")])
    def test_range(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            TauWeighting.of(bad)
        with pytest.raises(ValueError, match="on edge 1-2"):
            TauWeighting.of({(1, 2): bad})

    def test_one_is_allowed(self):
        assert TauWeighting.of(1.0).constant == 1.0

    @pytest.mark.parametrize(
        "raw", [np.float32(0.2), np.float64(0.2), 1, np.int64(1)],
        ids=["float32", "float64", "int", "int64"],
    )
    def test_constant_is_stored_as_a_float(self, raw):
        w = TauWeighting.of(raw)
        assert type(w.constant) is float and w.constant == float(raw)

    @pytest.mark.parametrize(
        "bad", [True, False, np.True_, "0.3", np.str_("0.3"), b"0.3", bytearray(b"0.3")],
        ids=["true", "false", "np-true", "str", "np-str", "bytes", "bytearray"],
    )
    def test_bool_and_text_are_refused(self, bad):
        with pytest.raises(ValueError, match="must be a real number"):
            TauWeighting.of(bad)
        with pytest.raises(ValueError, match="on edge 1-2 must be a real number"):
            TauWeighting.of({(1, 2): bad})
        with pytest.raises(ValueError, match="must be a real number"):
            existence(named("A", 3), bad)

    @pytest.mark.parametrize(
        "bad", [0.3 + 0j, np.complex128(0.3), np.complex64(0.3), [0.3], object()],
        ids=["complex", "np-complex128", "np-complex64", "list", "object"],
    )
    def test_complex_and_non_numbers_are_refused(self, bad):
        """A numpy complex scalar would lose its imaginary part to ``float``
        with only a warning; a Python complex or a list would raise a bare
        ``TypeError``."""
        message = f"must be a real number, got {re.escape(repr(bad))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^tau {message}"):
                TauWeighting.of(bad)
            with pytest.raises(ValueError, match=f"^tau on edge 1-2 {message}"):
                TauWeighting.of({(1, 2): bad})
            with pytest.raises(ValueError, match=f"^tau {message}"):
                existence(named("A", 3), bad)

    @pytest.mark.parametrize(
        "big, shown",
        [(10**400, "inf"), (-(10**400), "-inf"), (10**5000, "inf"), (Fraction(10**400), "inf")],
        ids=["1e400", "-1e400", "5001-digit", "fraction"],
    )
    def test_a_number_beyond_the_float_range_is_out_of_range(self, big, shown):
        """``float`` raises ``OverflowError`` on these, and the repr of an
        int past 4,300 digits raises, so the message shows the float value."""
        message = rf"must lie in \(0, 1\], got {shown}$"
        with pytest.raises(ValueError, match=f"^tau {message}"):
            TauWeighting.of(big)
        with pytest.raises(ValueError, match=f"^tau {message}"):
            existence(named("A", 3), big)
        with pytest.raises(ValueError, match=f"^tau on edge 1-2 {message}"):
            existence(named("A", 3), {(1, 2): big, (2, 3): 0.2})

    @pytest.mark.parametrize(
        "item", [1, ((1, 2), 0.2, 5), ((1, 2),), None],
        ids=["int", "triple", "single", "none"],
    )
    def test_per_edge_items_must_be_pairs(self, item):
        message = f"^per-edge item {re.escape(repr(item))} is not an \\(edge, tau\\) pair$"
        with pytest.raises(GraphError, match=message):
            TauWeighting(per_edge=[((2, 3), 0.3), item])
        with pytest.raises(GraphError, match=message):
            TauWeighting(per_edge=[item])

    @pytest.mark.parametrize("per_edge", [5, 0.2, True], ids=["int", "float", "bool"])
    def test_per_edge_must_be_iterable(self, per_edge):
        message = ("^per_edge must be a mapping or an iterable of \\(edge, tau\\) pairs, "
                   f"got {re.escape(repr(per_edge))}$")
        with pytest.raises(GraphError, match=message):
            TauWeighting(per_edge=per_edge)

    @pytest.mark.parametrize(
        "key", [1, (1, 2, 3), (1,), None], ids=["int", "triple", "single", "none"]
    )
    def test_per_edge_keys_must_be_pairs(self, key):
        message = f"^edge {re.escape(repr(key))} is not a pair of vertex labels$"
        with pytest.raises(GraphError, match=message):
            TauWeighting.of({key: 0.2, (2, 3): 0.3})
        with pytest.raises(ValueError, match=message):
            existence(named("A", 3), {(1, 2): 0.3, key: 0.2})

    def test_a_loop_key_is_refused_when_the_weighting_is_built(self):
        with pytest.raises(GraphError, match="^loop edge 1-1$"):
            TauWeighting(per_edge={(1, 2): 0.3, (1, 1): 0.2})

    @pytest.mark.parametrize(
        "key", [(True, 2), (1.0, 2), ("1", 2), (None, 2)], ids=["bool", "float", "str", "none"]
    )
    def test_per_edge_labels_must_be_integers(self, key):
        with pytest.raises(ValueError, match="vertex labels must be integers"):
            TauWeighting.of({key: 0.2, (2, 3): 0.3})

    def test_numpy_integer_labels_become_python_ints(self):
        w = TauWeighting.of({(np.int64(2), np.int32(1)): 0.2, (2, 3): 0.3})
        assert w.per_edge == {(1, 2): 0.2, (2, 3): 0.3}
        assert all(type(v) is int for e in w.per_edge for v in e)

    def test_per_edge_must_cover_the_edge_set_exactly(self):
        g = named("A", 3)
        assert existence(g, {(1, 2): 0.3, (2, 3): 0.3}).exists
        with pytest.raises(ValueError, match="misses edge 2-3"):
            gram_matrix(g, {(1, 2): 0.5})
        with pytest.raises(ValueError, match="misses edge 2-3"):
            existence(g, {(1, 2): 0.5})
        with pytest.raises(ValueError, match="non-edge 1-3"):
            gram_matrix(g, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): 0.5})
        with pytest.raises(ValueError, match="non-edge 1-3"):
            existence(g, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): 0.5})

    def test_constant_needs_no_validation(self):
        g = named("A", 3)
        assert existence(g, 0.3).exists
        assert gram_matrix(g, 0.3)[0, 1] == math.sqrt(0.3)

    @pytest.mark.parametrize("call", ["existence", "construct", "verify"])
    def test_a_raw_mapping_is_resolved_once(self, tau_checks, call):
        g = cycle(6)
        tau = dict.fromkeys(g.edges, 0.2)
        c = construct_configuration(g, tau)
        tau_checks.clear()
        {"existence": lambda: existence(g, tau),
         "construct": lambda: construct_configuration(g, tau),
         "verify": lambda: verify_configuration(c, g, tau)}[call]()
        assert sorted(tau_checks) == sorted(g.edges)


class TestGramMatrix:
    def test_constant_entries(self):
        a = gram_matrix(named("A", 3), 0.25)
        expected = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        assert np.array_equal(a, expected)

    def test_per_edge_entries(self):
        a = gram_matrix(named("A", 3), {(1, 2): 0.25, (2, 3): 1.0})
        assert a[0, 1] == 0.5 and a[1, 2] == 1.0 and a[0, 2] == 0.0

    def test_per_edge_must_cover_graph(self):
        with pytest.raises(ValueError, match="misses edge"):
            gram_matrix(named("A", 3), {(1, 2): 0.25})

    def test_edgeless(self):
        assert np.array_equal(gram_matrix(Graph(2, frozenset()), 0.7), np.eye(2))
        assert np.array_equal(gram_matrix(Graph(2, frozenset()), {}), np.eye(2))

    def test_matches_an_entry_by_entry_assembly(self, random_connected_corpus):
        rng = np.random.default_rng(5)
        for g in random_connected_corpus[:100]:
            tau = {e: float(rng.uniform(0.05, 1.0)) for e in sorted(g.edges)}
            want = np.eye(g.n)
            for (i, j), t in tau.items():
                want[i - 1, j - 1] = want[j - 1, i - 1] = math.sqrt(t)
            assert np.array_equal(gram_matrix(g, tau), want)


class TestExistence:
    def test_three_path_boundary(self):
        # Gram eigenvalues 1 +- sqrt(2 tau) and 1: zero crossing at tau = 1/2
        g = named("A", 3)
        at = existence(g, 0.5)
        assert at.exists and at.rank == 2
        assert at.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
        above = existence(g, 0.5 + 1e-3)
        assert not above.exists and above.min_eigenvalue < -1e-4
        below = existence(g, 0.5 - 1e-3)
        assert below.exists and below.rank == 3

    def test_per_edge_three_path(self):
        # eigenvalues 1 and 1 +- sqrt(t1 + t2): PSD exactly when t1 + t2 <= 1
        g = named("A", 3)
        assert existence(g, {(1, 2): 0.55, (2, 3): 0.45}).exists
        assert existence(g, {(1, 2): 0.55, (2, 3): 0.45}).rank == 2
        assert not existence(g, {(1, 2): 0.56, (2, 3): 0.45}).exists
        assert existence(g, {(1, 2): 0.3, (2, 3): 0.3}).rank == 3

    def test_min_eigenvalue_closed_form(self):
        # bipartite graph: lambda_min = 1 - r sqrt(tau). At 0.16 the matrix
        # is definite and the certificate decides, solving no eigenvalue.
        g = named("star", 4)
        v = existence(g, 0.16)
        assert (v.exists, v.rank, v.min_eigenvalue) == (True, 5, None)
        lam = eigenvalues(gram_matrix(g, 0.16)).min_eigenvalue
        assert lam == pytest.approx(1 - 2 * 0.4, abs=1e-12)
        assert existence(g, 0.36).min_eigenvalue == pytest.approx(1 - 2 * 0.6, abs=1e-12)

    def test_full_rank_when_strictly_inside(self):
        g = named("D", 5)
        v = existence(g, 0.1)
        assert v.exists and v.rank == 5

    def test_relabeling_does_not_change_the_verdict(self):
        base = named("E7")
        tau = {e: 0.05 + 0.02 * k for k, e in enumerate(sorted(base.edges))}
        reference = existence(base, tau)
        for seed in range(4):
            g, perm = shuffled(base, seed)
            moved = {
                (min(perm[i], perm[j]), max(perm[i], perm[j])): v
                for (i, j), v in tau.items()
            }
            v = existence(g, moved)
            assert v.exists == reference.exists and v.rank == reference.rank
            assert v.min_eigenvalue is reference.min_eigenvalue is None  # certified
            lam = eigenvalues(gram_matrix(g, moved)).min_eigenvalue
            assert lam == pytest.approx(eigenvalues(gram_matrix(base, tau)).min_eigenvalue,
                                        abs=1e-12)


class TestAdjacencySpectrumReuse:
    """Constant-tau questions read spec(I + sqrt(tau) A) = 1 + sqrt(tau) spec(A)
    off one adjacency solve kept on the graph instance."""

    @pytest.mark.parametrize("tag", ["A2", "A7", "D6", "E8", "E~7", "K1,5"])
    def test_one_solve_answers_every_tree_question(self, eig_calls, tag):
        g = generate_named(parse_named_spec(tag))
        sigma_tree(g)
        trichotomy(g)
        classify_index(g)
        for c in (0.2, 0.5, 0.9, 1.0, 1.3):
            existence(g, min(1.0, c * sigma_tree(g).upper))
        graph_index(g)
        graph_spectrum(g)
        assert eig_calls == [g.n]

    def test_one_solve_answers_a_graph_with_cycles(self, eig_calls):
        g = cycle(7)
        for tau in (0.1, 0.25, 0.3, 0.8):
            existence(g, tau)
        classify_index(g)
        assert eig_calls == [7]

    def test_the_memo_belongs_to_the_instance(self, eig_calls):
        """tau = 0.5 lies above E7's endpoint, so the certificate fails and
        each twin solves its own adjacency spectrum."""
        g = named("E7")
        twin = Graph(g.n, g.edges)
        assert twin == g
        assert existence(g, 0.5).min_eigenvalue == existence(twin, 0.5).min_eigenvalue
        assert eig_calls == [7, 7]

    def test_per_edge_tau_solves_its_own_gram_matrix(self, eig_calls, name_calls):
        """A per-edge weighting takes its Gram eigenvalues from the LAPACK
        ``eigenvalues`` call ``construct`` makes, never from Jacobi, and
        computes no eigenvectors. A definite one, like a definite constant
        tau, is certified and solves nothing, leaving the adjacency spectrum
        unsolved; an indefinite one is left to eigvalsh."""
        g = named("A", 4)
        calls = name_calls("eigenvalues", "eigenpairs")
        assert existence(g, 0.2).min_eigenvalue is None
        assert eig_calls == [] and (calls["eigenvalues"], calls["eigenpairs"]) == (0, 0)
        assert _memoised_spectrum(g) is None
        weights = {(1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.2}
        certified = existence(g, weights)
        assert (certified.exists, certified.rank, certified.min_eigenvalue) == (True, 4, None)
        assert eig_calls == [] and (calls["eigenvalues"], calls["eigenpairs"]) == (0, 0)
        # t12 + t23 > 1: the path 1-2-3 alone is indefinite, so eigvalsh decides
        weights = {(1, 2): 0.5, (2, 3): 0.6, (3, 4): 0.2}
        first = existence(g, weights)
        assert not first.exists
        second = existence(g, weights)
        assert (second.exists, second.rank, second.min_eigenvalue) == \
            (first.exists, first.rank, first.min_eigenvalue)
        assert eig_calls == [] and (calls["eigenvalues"], calls["eigenpairs"]) == (2, 0)
        a = gram_matrix(g, weights)
        lapack = eigenvalues(a)
        assert first.min_eigenvalue == lapack.eigenvalues[-1]
        jacobi = eigen_symmetric(a)
        band = jacobi.residual_bound + lapack.residual_bound
        assert abs(first.min_eigenvalue - jacobi.eigenvalues[-1]) <= band

    def test_per_edge_existence_at_the_endpoint_computes_no_eigenvectors(self, name_calls):
        g = named("A", 5)
        calls = name_calls("eigenvalues", "eigenpairs")
        assert existence(g, dict.fromkeys(g.edges, 1 / 3)).rank == 4
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (1, 0)

    def test_per_edge_tau_on_a_thousand_vertices(self, eig_calls):
        """The path's least Gram eigenvalue is 1 - 2 sqrt(tau) cos(pi/(n+1)).
        LAPACK solves this matrix in well under a second; Jacobi, cubic per
        sweep, would take minutes."""
        g = named("A", 1000)
        tau = dict.fromkeys(g.edges, 0.2)
        verdict = existence(g, tau)
        assert eig_calls == []
        assert (verdict.exists, verdict.rank, verdict.min_eigenvalue) == (True, 1000, None)
        expected = 1 - 2 * math.sqrt(0.2) * math.cos(math.pi / 1001)
        assert eigenvalues(gram_matrix(g, tau)).min_eigenvalue == pytest.approx(expected, abs=1e-12)

    def test_constant_tau_construct_solves_once(self, eig_calls, name_calls):
        """``construct`` makes at most one solve, from LAPACK, not from
        Jacobi; a Gram matrix that Cholesky certifies definite needs none."""
        g = named("D", 6)
        calls = name_calls("eigenvalues", "eigenpairs")
        config = construct_configuration(g, 0.2)
        assert eig_calls == [] and (calls["eigenvalues"], calls["eigenpairs"]) == (0, 0)
        assert config.ambient_dim == existence(g, 0.2).rank == 6

    def test_definite_per_edge_construct_computes_no_eigenvectors(self, name_calls):
        tau = {(1, 2): 0.2, (2, 3): 0.3, (3, 4): 0.2, (4, 5): 0.1}
        calls = name_calls("eigenvalues", "eigenpairs")
        assert construct_configuration(named("A", 5), tau).ambient_dim == 5
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (0, 0)

    @pytest.mark.parametrize("weights", ["constant", "per-edge"])
    def test_singular_construct_computes_eigenvectors_once(self, name_calls, weights):
        """A5 at its endpoint 1/3 has a singular Gram matrix: one dimension
        drops, and only the eigenvectors can factor it. ``eigenvalues`` gives
        the verdict, the one a per-edge ``existence`` gives, and one
        ``eigenpairs`` call then factors it."""
        g = named("A", 5)
        tau = 1 / 3 if weights == "constant" else dict.fromkeys(g.edges, 1 / 3)
        calls = name_calls("eigenvalues", "eigenpairs")
        assert construct_configuration(g, tau).ambient_dim == 4
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (1, 1)
        assert existence(g, dict.fromkeys(g.edges, 1 / 3)).rank == 4

    @pytest.mark.parametrize("weights", ["constant", "per-edge"])
    def test_refused_construct_computes_no_eigenvectors(self, name_calls, weights):
        """A3 at 0.6 has no configuration: ``eigenvalues`` refuses it, and
        no eigenvectors are computed to be thrown away."""
        g = named("A", 3)
        tau = 0.6 if weights == "constant" else dict.fromkeys(g.edges, 0.6)
        calls = name_calls("eigenvalues", "eigenpairs")
        with pytest.raises(ValueError, match="no configuration exists"):
            construct_configuration(g, tau)
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (1, 0)

    def test_memoised_eigenvalues_are_read_only(self):
        g = named("D", 5)
        spectrum = graph_spectrum(g)
        assert graph_spectrum(g) is spectrum
        with pytest.raises(ValueError):
            spectrum.eigenvalues[0] = 0.0
        assert graph_index(g) == spectrum.index


def _psd_endpoint(g):
    """min(1, 1/q^2) with q = -lambda_min(A) from numpy: where the unsigned
    Gram matrix stops being PSD, and for a tree the endpoint 1/r^2 of its
    interval."""
    q = -np.linalg.eigvalsh(adjacency_matrix(g))[0]
    return min(1.0, 1.0 / (q * q))


def _least_eigenvalue(verdict, g, tau):
    """The verdict's least Gram eigenvalue, or for a certified verdict,
    which holds none, the one eigvalsh gives on its Gram matrix, as CLI
    ``exists`` prints it."""
    if verdict.min_eigenvalue is None:
        return eigenvalues(gram_matrix(g, tau)).min_eigenvalue
    return verdict.min_eigenvalue


def _construct_agrees(g, tau):
    """``construct_configuration`` succeeds iff ``existence`` says a
    configuration exists, and then lives in ``rank`` dimensions and
    verifies."""
    verdict = existence(g, tau)
    if verdict.exists:
        config = construct_configuration(g, tau)
        assert config.ambient_dim == verdict.rank
        assert verify_configuration(config, g, tau).passed
    else:
        with pytest.raises(ValueError, match="no configuration exists"):
            construct_configuration(g, tau)
    return verdict


@pytest.mark.parametrize(
    "corpus_fixture", ["boundary_trees", "cycle_corpus", "random_connected_corpus"]
)
def test_constant_tau_matches_the_direct_gram_solve(request, corpus_fixture):
    graphs = request.getfixturevalue(corpus_fixture)
    if corpus_fixture == "boundary_trees":
        graphs = [g for g, _, _ in graphs]
    seen = set()
    worst = 0.0
    for g in graphs:
        ends = {_psd_endpoint(g)}
        if corpus_fixture == "cycle_corpus":
            ends.add(sigma_cycle(g.n).upper)
        for tau in [c * end for end in ends for c in (0.5, 1.0, 1.5)]:
            if tau > 1.0:
                continue
            evals = eigen_symmetric(gram_matrix(g, tau)).eigenvalues
            lam_min = float(evals[-1])
            verdict = existence(g, tau)
            assert verdict.exists == (lam_min >= -PSD_TOL)
            assert verdict.rank == int((evals > PSD_TOL).sum())
            worst = max(worst, abs(_least_eigenvalue(verdict, g, tau) - lam_min))
            seen.add(verdict.exists)
            if corpus_fixture != "boundary_trees":
                again = _construct_agrees(g, tau)
                assert (again.exists, again.rank, again.min_eigenvalue) == \
                    (verdict.exists, verdict.rank, verdict.min_eigenvalue)
                per_edge = _construct_agrees(g, dict.fromkeys(g.edges, tau))
                assert (per_edge.exists, per_edge.rank) == (verdict.exists, verdict.rank)
    assert worst <= 1e-12
    assert seen == {True, False}


@pytest.mark.parametrize(
    "family,sizes", [("A", range(8, 97)), ("D", range(8, 97)), ("E", (6, 7, 8))],
    ids=["A", "D", "E"],
)
def test_construct_agrees_with_existence_below_the_endpoint(family, sizes):
    """Just below a tree's endpoint, where the least eigenvalue is at most a
    few ``PSD_TOL``, ``construct`` succeeds exactly when ``existence`` does,
    in ``rank`` dimensions.

    The same tau on every edge, given per edge, makes ``existence`` read the
    ``spectra.eigenvalues`` array ``construct`` reads, so the dimension is
    the rank exactly. A constant tau makes ``existence`` read the Jacobi
    eigenvalues 1 + sqrt(tau) spec(A), with error at most sqrt(tau) times
    the adjacency spectrum's bound, while ``construct`` reads
    ``spectra.eigenvalues``, so an eigenvalue within the two solvers' summed
    error bounds of ``PSD_TOL`` may fall on either side of the rank cut; the
    dimension may then differ from the rank by the number of such
    eigenvalues, and by nothing else."""
    for n in sizes:
        g = generate_named(parse_named_spec(f"{family}{n}"))
        end = sigma_tree(g).upper
        for delta in ENDPOINT_SHRINKS:
            for tau in (end * (1 - delta), round(end * (1 - delta), 10)):
                for weights in (tau, dict.fromkeys(g.edges, tau)):
                    verdict = existence(g, weights)
                    if not verdict.exists:
                        with pytest.raises(ValueError, match="no configuration exists"):
                            construct_configuration(g, weights)
                        continue
                    dim = construct_configuration(g, weights).ambient_dim
                    unsure = 0
                    if weights is tau:
                        adj, root = graph_spectrum(g), math.sqrt(tau)
                        lapack = eigenvalues(gram_matrix(g, tau))
                        band = root * adj.residual_bound + lapack.residual_bound
                        jacobi = 1.0 + root * adj.eigenvalues
                        unsure = int(np.sum(np.abs(jacobi - PSD_TOL) <= band))
                    assert abs(dim - verdict.rank) <= unsure, (family, n, weights is tau, tau)


def _reference_construct(g, tau):
    """The construction before the Cholesky certificate, as an oracle: the
    verdict from ``eigenvalues``, then the Cholesky factor at full rank, or
    else the leading eigenpairs turned into the canonical frame by QR, with
    entries within n * eps of zero flushed. Returns the vectors, or the
    error text when no configuration exists."""
    a = gram_matrix(g, tau)
    verdict = ExistenceVerdict.from_eigenvalues(eigenvalues(a).eigenvalues)
    if not verdict.exists:
        return ("no configuration exists: Gram matrix has negative eigenvalue "
                f"{verdict.min_eigenvalue:.6e}")
    v = None
    if verdict.rank == g.n:
        try:
            v = np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            pass
    if v is None:
        pairs = eigenpairs(a)
        k = verdict.rank
        factor = pairs.eigenvectors[:, :k] * np.sqrt(pairs.eigenvalues[:k])
        r = np.linalg.qr(factor.T, mode="r")
        r *= np.copysign(1.0, r.diagonal())[:, None]
        v = np.ascontiguousarray(r.T)
    v[np.abs(v) <= g.n * np.finfo(float).eps] = 0.0
    return v


def _matches_the_reference(g, tau):
    """``construct`` gives the reference's vectors bit for bit, or raises its
    error text; returns whether a configuration exists."""
    want = _reference_construct(g, tau)
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            construct_configuration(g, tau)
        assert str(info.value) == want
        return False
    got = construct_configuration(g, tau).vectors
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (g.n, tau)
    return True


@pytest.mark.parametrize("weights", ["constant", "per-edge"])
@pytest.mark.parametrize("family", ["A", "D"])
def test_construct_matches_the_eigvalsh_reference_at_the_endpoint(family, weights):
    """Across the endpoint band, where the certificate fails and
    ``eigenvalues`` gives the verdict, the lines and the error texts are
    those of the eigvalsh-first construction."""
    outcomes = set()
    for n in (*range(5, 12), *range(12, 97, 7)):
        g = generate_named(NamedFamily(family, n))
        end = _psd_endpoint(g)
        for delta in (*ENDPOINT_SHRINKS, -2e-9, -1e-6):
            for tau in (end * (1 - delta), round(end * (1 - delta), 10)):
                if tau <= 1.0:
                    outcomes.add(_matches_the_reference(
                        g, tau if weights == "constant" else dict.fromkeys(g.edges, tau)))
    assert outcomes == {True, False}


@pytest.mark.parametrize("corpus_fixture", ["cycle_corpus", "random_connected_corpus"])
def test_construct_matches_the_eigvalsh_reference_on_graphs_with_cycles(
    request, corpus_fixture
):
    outcomes = set()
    for g in request.getfixturevalue(corpus_fixture):
        end = _psd_endpoint(g)
        for tau in (0.5 * end, end, min(1.0, end * (1 + 1e-9)), min(1.0, 1.5 * end)):
            outcomes.add(_matches_the_reference(g, tau))
            outcomes.add(_matches_the_reference(g, dict.fromkeys(g.edges, tau)))
    assert outcomes == {True, False}


def _eigen_route(g, tau, adjacency):
    """The verdict's fields, ``(exists, rank, min_eigenvalue)``, as the eigen
    route computes them, with no certificate: 1 + sqrt(tau) times the
    Jacobi spectrum ``adjacency`` of A for a constant tau, and eigvalsh on
    the Gram matrix for a per-edge one; and the route's error bound on the
    least eigenvalue beyond LAPACK's, sqrt(tau) times Jacobi's residual
    bound for a constant tau and 0 for a per-edge one."""
    if isinstance(tau, dict):
        evals, bound = np.linalg.eigvalsh(gram_matrix(g, tau))[::-1], 0.0
    else:
        root = math.sqrt(tau)
        evals, bound = 1.0 + root * adjacency.eigenvalues, root * adjacency.residual_bound
    verdict = bool(evals[-1] >= -PSD_TOL), int((evals > PSD_TOL).sum()), float(evals[-1])
    return verdict, bound


class TestCertifiedExistence:
    """``existence`` tries a Cholesky certificate before any eigensolve. Its
    ``exists`` and ``rank`` must be the eigen route's, bit for bit, on a
    fresh graph and on one whose adjacency spectrum is memoised; a certified
    verdict makes no solve and holds no least eigenvalue, and eigvalsh on
    its Gram matrix lies within the two routes' error bounds of the eigen
    route's value. Every other verdict's least eigenvalue is the eigen
    route's, bit for bit, from exactly one solve."""

    @pytest.fixture
    def check(self, eig_calls, name_calls):
        """``check(g, taus)`` compares every tau on ``g`` against the eigen
        route and returns how many verdicts were certified."""
        lapack = name_calls("eigenvalues")

        def solves():
            return len(eig_calls) + lapack["eigenvalues"]

        def run(g, taus):
            adjacency = eigen_symmetric(adjacency_matrix(g))
            certified = 0
            for tau in taus:
                want, route_bound = _eigen_route(g, tau, adjacency)
                fresh = Graph(g.n, g.edges)
                before = solves()
                verdict = existence(fresh, tau)
                made = solves() - before
                assert made in (0, 1), (g, tau)
                assert (verdict.exists, verdict.rank) == want[:2], (g, tau)
                if made == 0:
                    certified += 1
                    assert (verdict.exists, verdict.rank, verdict.min_eigenvalue) == \
                        (True, g.n, None)
                    assert _memoised_spectrum(fresh) is None, (g, tau)
                    lapack = eigenvalues(gram_matrix(g, tau))
                    lam = lapack.min_eigenvalue
                    assert abs(lam - want[2]) <= route_bound + lapack.residual_bound, (g, tau)
                else:
                    assert verdict.min_eigenvalue == want[2], (g, tau)
                graph_spectrum(fresh)
                memo = existence(fresh, tau)
                assert (memo.exists, memo.rank) == want[:2], (g, tau)
                # a per-edge tau ignores the memo, and is certified again
                assert _least_eigenvalue(memo, g, tau) == want[2], (g, tau)
            return certified

        return run

    @pytest.mark.parametrize("weights", ["constant", "per-edge"])
    @pytest.mark.parametrize("family", ["A", "D"])
    def test_trees_at_the_endpoint(self, check, family, weights):
        certified = 0
        for n in (5, 8, 13, 21, 34):
            g = generate_named(NamedFamily(family, n))
            end = _psd_endpoint(g)
            taus = [end * (1 - delta) for delta in (*ENDPOINT_SHRINKS, 1e-2, 0.5, -1e-6)]
            if weights == "per-edge":
                taus = [dict.fromkeys(g.edges, tau) for tau in taus]
            certified += check(g, taus)
        assert certified >= 2 * 5  # at least the two interior taus of every size

    def test_cycles_at_multiples_of_their_endpoint(self, check):
        certified = 0
        for n in range(3, 30):
            g = cycle(n)
            end = _psd_endpoint(g)
            taus = [c * end for c in (0.5, 0.9, 0.99, 1 - 1e-9, 1.0, 1 + 1e-9, 1.01, 1.5)]
            taus = [tau for tau in taus if tau <= 1.0]
            certified += check(g, taus + [dict.fromkeys(g.edges, tau) for tau in taus])
        assert certified >= 3 * 2 * 27  # every tau up to 0.99 times the endpoint

    def test_random_connected_graphs(self, check, random_connected_corpus):
        rng = np.random.default_rng(17)
        certified = 0
        for g in random_connected_corpus[:150]:
            end = _psd_endpoint(g)
            taus = [min(1.0, c * end) for c in (0.5, 0.999, 1.0, 1.001)]
            taus += [{e: min(1.0, c * end * float(rng.uniform(0.5, 1.5))) for e in sorted(g.edges)}
                     for c in (0.5, 1.0)]
            certified += check(g, taus)
        assert certified >= 3 * 150  # the half-way taus and the 0.999 one

    @pytest.mark.parametrize("weights", ["constant", "per-edge"])
    def test_a_definite_query_holds_no_least_eigenvalue_and_solves_nothing(
        self, eig_calls, name_calls, weights
    ):
        g = named("A", 20)
        tau = 0.2 if weights == "constant" else dict.fromkeys(g.edges, 0.2)
        calls = name_calls("eigenvalues", "eigenpairs")
        verdict = existence(g, tau)
        assert (verdict.exists, verdict.rank, verdict.min_eigenvalue) == (True, 20, None)
        assert eig_calls == [] and calls["eigenvalues"] == calls["eigenpairs"] == 0
        assert _memoised_spectrum(g) is None
        lam = eigenvalues(gram_matrix(g, tau)).min_eigenvalue
        assert lam == pytest.approx(1 - 2 * math.sqrt(0.2) * math.cos(math.pi / 21), abs=1e-12)

    @pytest.mark.parametrize("tau", [0.2, 0.6, {(1, 2): 0.2, (2, 3): 0.2},
                                     {(1, 2): 0.6, (2, 3): 0.6}],
                             ids=["constant-definite", "constant-indefinite",
                                  "per-edge-definite", "per-edge-indefinite"])
    def test_one_gram_assembly_per_call(self, assemblies, tau):
        """The certificate and the eigvalsh that a failed one leaves the
        verdict to share one Gram matrix; a constant tau with the adjacency
        spectrum memoised assembles none."""
        g = named("A", 3)
        existence(g, tau)
        assert assemblies == [3]
        graph_spectrum(g)
        existence(g, tau)
        assert assemblies == [3] * (2 if isinstance(tau, dict) else 1)

    def test_the_constant_tau_floor_covers_the_jacobi_bound(self, eig_calls, name_calls):
        """On A64 with least Gram eigenvalue 2 PSD_TOL the per-edge shift,
        PSD_TOL plus rounding, is certified. A constant tau adds sqrt(tau)
        times Jacobi's a-priori bound, about 3e-9 here, to the floor, so
        the same matrix goes to Jacobi, which agrees on rank 64."""
        root = (1.0 - 2 * PSD_TOL) / (2.0 * math.cos(math.pi / 65))
        g, tau = named("A", 64), root * root
        calls = name_calls("eigenvalues")
        per_edge = existence(g, dict.fromkeys(g.edges, tau))
        assert (per_edge.rank, calls["eigenvalues"], eig_calls) == (64, 0, [])
        assert existence(g, tau).rank == 64
        assert eig_calls == [64]

    def test_a_memoised_spectrum_needs_no_certificate(self, monkeypatch, eig_calls):
        """With the adjacency spectrum on the graph, a constant tau reads it
        and factors nothing."""
        g = named("D", 12)
        graph_spectrum(g)

        def refuses(*args):
            raise AssertionError("certificate attempted")

        monkeypatch.setattr(angleset.admissible, "_certified", refuses)
        verdict = existence(g, 0.2)
        assert (verdict.exists, verdict.rank, eig_calls) == (True, 12, [12])


class TestOnePassPerGraphFact:
    """A tree query derives each structural fact of its graph once."""

    @pytest.mark.parametrize("tag", ["A2", "A7", "D6", "E8", "D~6", "K1,5"])
    def test_one_union_find_per_graph(self, monkeypatch, tag):
        runs = []
        real = angleset.graphs._union_find_roots
        monkeypatch.setattr(angleset.graphs, "_union_find_roots",
                            lambda g: runs.append(g) or real(g))
        g = generate_named(parse_named_spec(tag))
        sigma_tree(g)
        trichotomy(g)
        classify_structure(g)
        assert is_tree(g) and is_connected(g)
        assert component_vertex_sets(g) == [tuple(g.vertices)]
        assert len(runs) == 1 and runs[0] is g
        twin = Graph(g.n, g.edges)
        trichotomy(twin)
        assert len(runs) == 2 and runs[1] is twin

    @pytest.mark.parametrize("c", [0.5, 1.0, 1.5])
    def test_memo_route_verdicts_are_the_shifted_adjacency_verdicts(
        self, monkeypatch, boundary_trees, c
    ):
        """With the adjacency spectrum memoised, every field equals, bit for
        bit, the verdict on the Gram eigenvalues 1 + sqrt(tau) spec(A)."""

        def refuses(*args):
            raise AssertionError("certificate attempted")

        monkeypatch.setattr(angleset.admissible, "_certified", refuses)
        checked = 0
        for g, r, _ in boundary_trees:
            assert _memoised_spectrum(g) is not None
            tau = min(1.0, 1.0 / (r * r)) if c == 1.0 else c / (r * r)
            if tau > 1.0:
                continue
            got = existence(g, tau)
            shifted = 1.0 + math.sqrt(tau) * graph_spectrum(g).eigenvalues
            want = ExistenceVerdict.from_eigenvalues(shifted)
            assert (got.exists, got.rank) == (want.exists, want.rank)
            assert got.min_eigenvalue == want.min_eigenvalue
            checked += 1
        assert checked >= len(boundary_trees) - 1


class TestClosedFormEndpoint:
    """``sigma_tree`` answers a recognised tree from its Coxeter number."""

    @pytest.mark.parametrize("tag", ["A2", "D6", "E8", "D~6", "E~7", "K1,5"])
    def test_tree_questions_share_one_shape_pass(self, shape_passes, tag):
        g = generate_named(parse_named_spec(tag))
        sigma_tree(g)
        trichotomy(g)
        classify_index(g)
        assert shape_passes == [g.n]

    def test_a_recognised_tree_solves_nothing(self, eig_calls, name_calls):
        solves = name_calls("eigenvalues", "eigenpairs")
        for g in (named("A", 300), named("D", 300), named("E8"), named("D~", 300), named("E~8")):
            sigma_tree(g)
            assert _memoised_spectrum(g) is None
        assert eig_calls == [] and not solves

    def test_a_recognised_tree_past_the_vertex_cap(self):
        """No matrix is built, so ``MAX_VERTICES`` does not apply."""
        g = named("A", 50_000)
        c = math.cos(math.pi / 50_001)
        assert sigma_tree(g).upper == pytest.approx(1 / (4 * c * c), rel=1e-15)
        assert trichotomy(g) is QuarterPosition.ABOVE


class TestLibrarySizeGate:
    """The dense n x n routes refuse a graph past ``MAX_VERTICES`` before
    they allocate: a 50,000-vertex Gram matrix would take 18.6 GiB."""

    @pytest.fixture(scope="class")
    def path(self):
        return named("A", 50_000)

    @pytest.mark.parametrize("call", ["existence", "per-edge existence", "construct",
                                      "graph_spectrum", "verify"])
    def test_refused_within_ten_milliseconds(self, path, call):
        run = {
            "existence": lambda: existence(path, 0.2),
            "per-edge existence": lambda: existence(path, weights),
            "construct": lambda: construct_configuration(path, 0.2),
            "graph_spectrum": lambda: graph_spectrum(path),
            "verify": lambda: verify_configuration(lines, path, 0.2),
        }[call]
        weights = TauWeighting(per_edge=dict.fromkeys(path.edges, 0.2))
        lines = SubspaceConfiguration(np.ones((path.n, 1)))
        best = math.inf
        for _ in range(3):  # the best of three, against a busy machine
            start = time.perf_counter()
            with pytest.raises(GraphError,
                               match="^graph has 50000 vertices, above the limit of 2000$"):
                run()
            best = min(best, time.perf_counter() - start)
        assert best < 0.01


class TestSigmaInterval:
    @pytest.mark.parametrize("tag", ["A5", "D6", "E8", "K1,5", "D~4"])
    def test_existence_holds_on_the_whole_interval_and_not_past_it(self, tag):
        """The interval (0, upper] is where a tree's configuration exists:
        near 0 the Gram matrix is nearly the identity, at the endpoint it
        loses exactly the Perron direction, and just past it it is
        indefinite."""
        g = generate_named(parse_named_spec(tag))
        upper = sigma_tree(g).upper
        near_zero = existence(g, 1e-9)
        assert near_zero.exists and near_zero.rank == g.n
        lam = eigenvalues(gram_matrix(g, 1e-9)).min_eigenvalue
        assert lam == pytest.approx(1.0, abs=1e-3)
        at_end = existence(g, upper)
        assert at_end.exists and at_end.rank == g.n - 1
        assert not existence(g, 1.001 * upper).exists

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.5])
    def test_endpoint_range(self, bad):
        with pytest.raises(ValueError, match="endpoint"):
            SigmaInterval(bad)

    @pytest.mark.parametrize("bad,shown", [("0.5", "'0.5'"), (None, "None"), ([0.5], r"\[0\.5\]")],
                             ids=["text", "none", "list"])
    def test_an_endpoint_that_is_not_a_number(self, bad, shown):
        """No order with a float: the same ``ValueError`` as a number out of
        range, not a bare ``TypeError``."""
        with pytest.raises(ValueError, match=rf"^interval endpoint must lie in \(0, 1\], got {shown}$"):
            SigmaInterval(bad)


class TestSigmaFormulas:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_paths(self, n):
        c = math.cos(math.pi / (n + 1))
        assert sigma_tree(named("A", n)).upper == pytest.approx(
            1 / (4 * c * c), abs=1e-12
        )

    def test_single_edge_reaches_one(self):
        assert sigma_tree(named("A", 2)).upper == 1.0

    @pytest.mark.parametrize("n", range(4, 12))
    def test_d_family(self, n):
        c = math.cos(math.pi / (2 * (n - 1)))
        assert sigma_tree(named("D", n)).upper == pytest.approx(
            1 / (4 * c * c), abs=1e-12
        )

    @pytest.mark.parametrize("tag,denom", [("E6", 12), ("E7", 18), ("E8", 30)])
    def test_e_family(self, tag, denom):
        c = math.cos(math.pi / denom)
        assert sigma_tree(named(tag)).upper == pytest.approx(1 / (4 * c * c), abs=1e-12)

    @pytest.mark.parametrize("tag", ["D~4", "D~7", "E~6", "E~7", "E~8"])
    def test_extended_trees_sit_at_one_quarter(self, tag):
        g = generate_named(parse_named_spec(tag))
        assert sigma_tree(g).upper == pytest.approx(0.25, abs=1e-12)

    def test_star_endpoint_is_one_over_leaf_count(self):
        for leaves in range(1, 30):
            assert sigma_tree(named("star", leaves)).upper == pytest.approx(
                1 / leaves, abs=1e-12
            ), leaves

    def test_rejects_non_trees_and_single_vertices(self):
        with pytest.raises(ValueError, match="trees only"):
            sigma_tree(named("cycle", 4))
        with pytest.raises(ValueError, match="at least one edge"):
            sigma_tree(Graph(1, frozenset()))

    @pytest.mark.parametrize(
        "n,endpoint", [(3, 1.0), (4, 0.5), (6, 1 / 3)]
    )
    def test_cycle_closed_form(self, n, endpoint):
        assert sigma_cycle(n).upper == pytest.approx(endpoint, abs=1e-12)

    def test_cycle_matches_shorter_path(self):
        for n in range(3, 10):
            assert sigma_cycle(n).upper == pytest.approx(
                sigma_tree(named("A", n - 1)).upper, abs=1e-12
            )

    def test_cycle_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            sigma_cycle(2)

    @pytest.mark.parametrize("n", [5.5, 4.0, "5", True])
    def test_cycle_length_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match="cycle length must be an integer"):
            sigma_cycle(n)

    def test_cycle_takes_a_numpy_length(self):
        assert sigma_cycle(np.int64(6)).upper == sigma_cycle(6).upper

    def test_cycle_endpoint_is_the_closed_form_to_the_bit(self):
        """1/(4cos^2(pi/n)) capped at 1, as a float, for every length it can
        be evaluated at, and exact where 4cos^2(pi/n) is an integer: the
        float cos(pi/3) would give 0.9999999999999996 at n = 3. From 10^9 on
        it is exactly 1/4."""
        exact = {3: 1.0, 4: 0.5, 6: 1 / 3}
        lengths = [*range(3, 10_001), *(10 ** k for k in range(4, 301))]
        for n in lengths:
            c = math.cos(math.pi / n)
            want = exact.get(n, min(1.0, 1.0 / (4.0 * c * c)))
            assert sigma_cycle(n).upper == want, n
        assert all(sigma_cycle(10 ** k).upper == 0.25 for k in range(9, 301))

    @pytest.mark.parametrize("n", [10 ** 309, 10 ** 400, 10 ** 5000], ids=["e309", "e400", "e5000"])
    def test_cycle_longer_than_the_float_range(self, n):
        """pi / n would overflow; the endpoint is 1/4, as at every n >= 10^9."""
        assert sigma_cycle(n) == SigmaInterval(0.25)

    def test_cycle_length_below_three_is_named_briefly(self):
        with pytest.raises(ValueError, match="^cycle needs at least 3 vertices, got <16610-bit int>$"):
            sigma_cycle(-10 ** 5000)

    def test_cycle_formula_is_not_the_cycle_psd_threshold(self):
        # The formula tops the PSD threshold of the even cycle itself: C6 has
        # min eigenvalue -2, so its Gram matrix leaves PSD at tau = 1/4.
        end = sigma_cycle(6).upper
        assert end == pytest.approx(1 / 3, abs=1e-12)
        g = named("cycle", 6)
        assert not existence(g, end).exists
        assert existence(g, 0.25).exists

    def test_signed_cycle_lines_verify_past_the_cycle_psd_threshold(self):
        """At tau = 0.3, past C6's own threshold 1/4 but inside its interval,
        the Gram matrix with one edge negated is definite (least eigenvalue
        1 - sqrt(0.9) = 0.0513), and its Cholesky rows are lines at the
        prescribed angles on C6, which verify: lines, not signed vectors,
        are judged."""
        g = named("cycle", 6)
        assert not existence(g, 0.3).exists
        signed = gram_matrix(g, 0.3)
        signed[0, 5] = signed[5, 0] = -math.sqrt(0.3)
        assert np.linalg.eigvalsh(signed)[0] == pytest.approx(1 - math.sqrt(0.9), abs=1e-12)
        lines = SubspaceConfiguration(np.linalg.cholesky(signed))
        report = verify_configuration(lines, g, 0.3)
        assert report.passed and report.max_residual <= 1e-14, report.as_dict()


def test_every_corpus_tree_lies_between_the_star_and_the_path(boundary_trees):
    """Over the trees on n >= 2 vertices the endpoint 1/r^2 is least for the
    star K1,n-1, whose index sqrt(n-1) is the largest among trees
    (Lovasz-Pelikan), and greatest for the path, whose index 2cos(pi/(n+1))
    is the least among connected graphs. The corpus holds every labeled tree
    on up to 6 vertices, so there both extremes are attained. The slack
    absorbs solver rounding: Jacobi puts the endpoint of K1,5 at
    0.19999999999999996, just under its exact 1/5."""
    def star(n):
        return 1 / (n - 1)

    def path(n):
        return min(1.0, 1 / (4 * math.cos(math.pi / (n + 1)) ** 2))

    extremes = {}
    for g, _, _ in boundary_trees:
        upper = sigma_tree(g).upper
        assert star(g.n) - 1e-12 <= upper <= path(g.n) + 1e-12, sorted(g.edges)
        lo, hi = extremes.get(g.n, (upper, upper))
        extremes[g.n] = (min(lo, upper), max(hi, upper))
    for n in range(2, 7):
        lo, hi = extremes[n]
        assert lo == pytest.approx(star(n), abs=1e-12), n
        assert hi == pytest.approx(path(n), abs=1e-12), n


class TestTrichotomy:
    @pytest.mark.parametrize(
        "family,size,expected",
        [
            ("A", 2, QuarterPosition.ABOVE),
            ("A", 9, QuarterPosition.ABOVE),
            ("D", 6, QuarterPosition.ABOVE),
            ("E8", None, QuarterPosition.ABOVE),
            ("D~", 4, QuarterPosition.EQUAL),
            ("D~", 9, QuarterPosition.EQUAL),
            ("E~6", None, QuarterPosition.EQUAL),
            ("E~7", None, QuarterPosition.EQUAL),
            ("E~8", None, QuarterPosition.EQUAL),
            ("star", 5, QuarterPosition.BELOW),
        ],
    )
    def test_families(self, family, size, expected):
        assert trichotomy(named(family, size)) is expected

    def test_wide_spider_lands_below(self):
        g = Graph.from_edges(
            [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7), (7, 8), (4, 9), (9, 10)]
        )
        assert trichotomy(g) is QuarterPosition.BELOW

    def test_single_vertex_counts_as_dynkin(self):
        assert trichotomy(Graph(1, frozenset())) is QuarterPosition.ABOVE

    def test_rejects_cycles(self):
        with pytest.raises(ValueError, match="trees only"):
            trichotomy(named("cycle", 5))

    def test_rejects_disconnected_graphs(self):
        # A triangle and an isolated vertex: 3 = n - 1 edges, not a tree.
        for g in (Graph.from_edges([(1, 2), (3, 4)]),
                  Graph.from_edges([(1, 2), (2, 3), (1, 3)], n=4)):
            with pytest.raises(ValueError, match="trichotomy applies to trees only"):
                trichotomy(g)

    def test_a_fresh_graph_solves_nothing(self, eig_calls, name_calls):
        """The position is read off the exact shape, so no eigensolver runs
        and no adjacency spectrum is left memoised."""
        solves = name_calls("eigenvalues", "eigenpairs")
        rng = random.Random(40)
        tree = tree_from_pruefer(40, [rng.randint(1, 40) for _ in range(38)])
        cases = [
            (named("A", 60), QuarterPosition.ABOVE),
            (named("D~", 30), QuarterPosition.EQUAL),
            (named("E8"), QuarterPosition.ABOVE),
            (named("star", 5), QuarterPosition.BELOW),
            (tree, QuarterPosition.BELOW),
        ]
        for g, expected in cases:
            assert trichotomy(g) is expected
            assert _memoised_spectrum(g) is None
        assert eig_calls == [] and not solves
        assert np.linalg.eigvalsh(adjacency_matrix(tree))[-1] > 2.0

    def test_enum_values_spell_the_position(self):
        assert QuarterPosition.ABOVE.value == "AboveQuarter"
        assert QuarterPosition.EQUAL.value == "EqualQuarter"
        assert QuarterPosition.BELOW.value == "BelowQuarter"


@given(
    st.integers(min_value=2, max_value=8),
    st.data(),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=80, deadline=None)
def test_existence_agrees_with_the_interval_on_trees(n, data, tau):
    idx = data.draw(st.integers(min_value=0, max_value=n ** max(0, n - 2) - 1))
    g = tree_from_pruefer(n, pruefer_from_index(n, idx))
    interval = sigma_tree(g)
    assume(abs(tau - interval.upper) > 1e-6)  # stay clear of the boundary
    assert existence(g, tau).exists == (0 < tau <= interval.upper)


@given(
    st.integers(min_value=2, max_value=7),
    st.data(),
    st.floats(min_value=0.02, max_value=1.0),
    st.floats(min_value=0.1, max_value=0.9),
)
@settings(max_examples=60, deadline=None)
def test_existence_is_monotone_in_tau(n, data, tau, shrink):
    idx = data.draw(st.integers(min_value=0, max_value=n ** max(0, n - 2) - 1))
    g = tree_from_pruefer(n, pruefer_from_index(n, idx))
    if existence(g, tau).exists:
        assert existence(g, tau * shrink).exists


@st.composite
def connected_graphs(draw, max_n=12):
    """A uniform-labelled spanning tree from a Pruefer sequence plus any set
    of extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    seq = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=n - 2, max_size=n - 2))
    edges = set(tree_from_pruefer(n, seq).edges)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return Graph(n, frozenset(edges))


@given(connected_graphs(), st.floats(min_value=0.5, max_value=0.99))
@settings(max_examples=80, deadline=None)
def test_a_certified_constant_tau_leaves_its_least_eigenvalue_to_lapack(g, scale):
    """Strictly inside the PSD interval the certificate decides a constant
    tau with no solve, and the least eigenvalue that eigvalsh gives on the
    Gram matrix is 1 + sqrt(tau) lambda_min(A) to within the LAPACK
    a-priori bounds of the Gram and the adjacency solve."""
    tau = scale * _psd_endpoint(g)
    verdict = existence(g, tau)
    assert (verdict.exists, verdict.rank, verdict.min_eigenvalue) == (True, g.n, None)
    assert _memoised_spectrum(g) is None
    lapack = eigenvalues(gram_matrix(g, tau))
    lam = lapack.min_eigenvalue
    assert lam > PSD_TOL
    a = adjacency_matrix(g)
    root = math.sqrt(tau)
    band = lapack.residual_bound + root * _lapack_bound(g.n, float(np.linalg.norm(a)))
    assert abs(lam - (1.0 + root * np.linalg.eigvalsh(a)[0])) <= band


@given(connected_graphs(), st.data())
@settings(max_examples=80, deadline=None)
def test_per_edge_existence_decides_construct_on_graphs_with_cycles(g, data):
    """With tau drawn per edge around the graph's PSD endpoint (exactly at
    it, where the Gram matrix is singular, or within 1% or 10% of it),
    ``construct`` succeeds exactly when ``existence`` says a configuration
    exists; its lines then live in ``rank`` dimensions and verify."""
    assume(not is_tree(g))
    end = _psd_endpoint(g)
    spread = data.draw(st.sampled_from([0.0, 0.01, 0.1]))
    scale = st.floats(min_value=1.0 - spread, max_value=1.0 + spread)
    _construct_agrees(g, {e: min(1.0, end * data.draw(scale)) for e in sorted(g.edges)})


# Relative offsets from the PSD endpoint: on it, at rounding distance, where
# the least Gram eigenvalue is about +-PSD_TOL, and well past it either way.
NEAR_ENDPOINT = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, 2e-9, -2e-9, 4e-9, 1e-6, -1e-6]) \
    | st.floats(min_value=-0.01, max_value=0.01)


@given(connected_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_construct_takes_the_per_edge_verdict_from_at_most_one_eigh(g, data):
    """At or just around the PSD endpoint, with one tau or tau drawn per
    edge, ``construct`` lives in the ``rank`` dimensions of a per-edge
    ``existence``, or both refuse it with the least eigenvalue of that
    verdict. ``construct`` computes eigenvectors once when it drops a
    dimension, and never when it refuses. Its lines are those of the
    eigvalsh-first construction, bit for bit."""
    end = _psd_endpoint(g)
    if data.draw(st.booleans(), label="per edge"):
        tau = {e: min(1.0, end * (1.0 - data.draw(NEAR_ENDPOINT))) for e in sorted(g.edges)}
        per_edge = tau
    else:
        tau = min(1.0, end * (1.0 - data.draw(NEAR_ENDPOINT)))
        per_edge = dict.fromkeys(g.edges, tau)
    verdict = existence(g, per_edge)
    solved = []
    real = angleset.configurations.eigenpairs
    with pytest.MonkeyPatch.context() as patch:
        # configurations._canonical_factor is construct's one caller of eigenpairs
        patch.setattr(angleset.configurations, "eigenpairs",
                      lambda m: solved.append(m) or real(m))
        try:
            config = construct_configuration(g, tau)
        except ValueError as exc:
            assert not verdict.exists and solved == []
            assert str(exc) == ("no configuration exists: Gram matrix has negative "
                                f"eigenvalue {verdict.min_eigenvalue:.6e}")
        else:
            assert verdict.exists and config.ambient_dim == verdict.rank
            assert verify_configuration(config, g, tau).passed
            if config.ambient_dim < g.n:  # lines through eigenvectors: the patch was hit
                assert len(solved) == 1
    assert len(solved) <= 1
    _matches_the_reference(g, tau)
