import copy
import functools
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from angleset import (
    PSD_TOL,
    Graph,
    NamedFamily,
    SubspaceConfiguration,
    TauWeighting,
    configuration_document,
    construct_configuration,
    eigenpairs,
    existence,
    generate_named,
    graph_spectrum,
    gram_matrix,
    load_configuration,
    parse_named_spec,
    sigma_tree,
    tree_from_pruefer,
    verify_configuration,
)
import angleset.configurations
from angleset.admissible import _cholesky_shift
from angleset.configurations import VERIFY_TOL, VerificationReport
from angleset.graphs import MAX_VERTICES, GraphError
from angleset.spectra import Spectrum
from corpus import CORPUS_SEED, pruefer_from_index, random_connected_graphs


def named(family, size=None):
    return generate_named(NamedFamily(family, size))


def spec_graph(spec):
    return generate_named(parse_named_spec(spec))


class TestSubspaceConfiguration:
    def test_hand_built_vectors_verify(self):
        """A configuration built from vectors by hand, not by
        ``construct_configuration``, reads its shape from ``vectors`` and
        verifies against the path 1-2-3 at tau = 0.36: unit rows, inner
        product 0.6 = sqrt(tau) along each edge, 0 across the non-edge."""
        v = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.75, math.sqrt(0.4375)]])
        c = SubspaceConfiguration(v)
        assert c.size == 3 and c.ambient_dim == 3 and c._gram is None
        report = verify_configuration(c, Graph.from_edges([(1, 2), (2, 3)]), 0.36)
        assert report.passed and report.max_residual <= VERIFY_TOL

    @pytest.mark.parametrize("rows", [np.array([[1, 0], [0, 1]]), [[1, 0], [0, 1]],
                                      [[1.0, 0.0], [0.0, 1.0]]])
    def test_integer_and_list_rows_are_stored_as_floats(self, rows):
        c = SubspaceConfiguration(rows)
        assert c.vectors.dtype == float and (c.size, c.ambient_dim) == (2, 2)
        assert verify_configuration(c, Graph(2, []), 0.5).passed

    def test_float_arrays_are_not_copied(self):
        v = np.eye(3)
        assert SubspaceConfiguration(v).vectors is v

    @pytest.mark.parametrize("rows", [np.eye(2, dtype=complex), [[1j, 0], [0, 1]]])
    def test_complex_vectors_are_refused(self, rows):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            with pytest.raises(ValueError, match="must be real"):
                SubspaceConfiguration(rows)

    @pytest.mark.parametrize("rows", [[["1", "0"], ["0", "1"]], np.array([[b"1", b"0"]]),
                                      [[True, False], [False, True]], np.eye(2, dtype=bool),
                                      [[Fraction(1), "0"], [0, "1"]], [[None, 0.0]]],
                             ids=["text", "bytes", "bool-list", "bool-array", "mixed", "none"])
    def test_vectors_that_are_not_numbers_are_refused(self, rows):
        with pytest.raises(ValueError, match="^vectors must be real numbers, got (str|bytes|bool|obj)"):
            SubspaceConfiguration(rows)

    @pytest.mark.parametrize("rows", [np.ones(3), [1.0, 0.0], 1.0, np.ones((2, 2, 1))])
    def test_vectors_must_be_two_dimensional(self, rows):
        with pytest.raises(ValueError, match="must be a 2-D array of rows"):
            SubspaceConfiguration(rows)

    @pytest.mark.parametrize(
        "rows,shape",
        [(np.zeros((0, 3)), (0, 3)), (np.zeros((3, 0)), (3, 0)), ([[]], (1, 0)),
         ([[], []], (2, 0))],
        ids=["no-rows", "no-coordinates", "empty-row", "empty-rows"],
    )
    def test_no_rows_or_no_coordinates_are_refused(self, rows, shape):
        """No unit vector lives in R^0, and no vertex has no vector: verify
        would report such a configuration as failed, not refuse it."""
        message = ("^vectors must have at least one row and one coordinate, "
                   f"got shape {re.escape(str(shape))}$")
        with pytest.raises(ValueError, match=message):
            SubspaceConfiguration(rows)

    @pytest.mark.parametrize(
        "rows",
        [[[1.0, True], [0.0, 1.0]], [[1, True], [0, 1]], ((1.0, 0.0), (np.True_, 1.0)),
         [np.array([True, False]), np.array([0.0, 1.0])]],
        ids=["float-rows", "int-rows", "numpy-bool", "bool-array-row"],
    )
    def test_a_bool_among_numbers_is_refused(self, rows):
        """numpy reads ``True`` as 1 when numbers sit beside it, so the
        array alone would hold no trace of it."""
        assert np.asarray(rows).dtype.kind in "if"
        with pytest.raises(ValueError, match="^vectors must be real numbers, got bool entries$"):
            SubspaceConfiguration(rows)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [False, True], ids=["rows", "array"])
    def test_non_finite_entries_are_refused(self, entry, as_array):
        rows = [[1.0, 0.0], [entry, 1.0]]
        with pytest.raises(ValueError, match="^vectors must be finite, got a NaN or infinite entry$"):
            SubspaceConfiguration(np.array(rows) if as_array else rows)

    @pytest.mark.parametrize("rows", [[[1.0], [1.0, 0.0]], [[1.0, 0.0], 1.0]],
                             ids=["short-row", "number-row"])
    def test_rows_of_unequal_length_are_refused(self, rows):
        with pytest.raises(ValueError,
                           match="^vectors must be a 2-D array of rows of equal length$"):
            SubspaceConfiguration(rows)

    def test_integers_past_64_bits(self):
        """numpy holds such an int as an object; one within the float range
        is stored as its float, one past it is refused."""
        assert SubspaceConfiguration([[2 ** 64, 0], [0, 1]]).vectors[0, 0] == 2.0 ** 64
        with pytest.raises(ValueError,
                           match="^vectors must be finite, got an integer past the float range$"):
            SubspaceConfiguration([[10 ** 400, 0], [0, 1]])


class TestConstruct:
    def test_interior_point_keeps_full_dimension(self):
        g = named("E6")
        c = construct_configuration(g, 0.25)
        assert c.ambient_dim == 6 and c.size == 6
        report = verify_configuration(c, g, 0.25)
        assert report.passed
        assert report.max_residual < 1e-11

    @pytest.mark.parametrize(
        "family,size", [("A", 3), ("star", 4), ("D", 5), ("E~8", None)]
    )
    def test_boundary_point_drops_one_dimension(self, family, size):
        g = named(family, size)
        tau = sigma_tree(g).upper
        c = construct_configuration(g, tau)
        assert c.ambient_dim == g.n - 1
        assert verify_configuration(c, g, tau).passed

    def test_infeasible_angle_raises(self):
        with pytest.raises(ValueError, match="no configuration exists"):
            construct_configuration(named("A", 3), 0.6)

    def test_per_edge_construction(self):
        g = named("A", 4)
        tau = {(1, 2): 0.3, (2, 3): 0.2, (3, 4): 0.45}
        c = construct_configuration(g, tau)
        report = verify_configuration(c, g, tau)
        assert report.passed
        # the two non-unit inner products really are sqrt(tau_ij)
        v = c.vectors
        assert v[0] @ v[1] == pytest.approx(math.sqrt(0.3), abs=1e-12)
        assert v[1] @ v[2] == pytest.approx(math.sqrt(0.2), abs=1e-12)
        assert v[0] @ v[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "tau", [0.2, {(1, 2): 0.3, (2, 3): 0.2, (3, 4): 0.45}], ids=["constant", "per-edge"]
    )
    def test_one_gram_assembly_per_call(self, assemblies, tau):
        """The certificate and the factorisation share one Gram matrix."""
        construct_configuration(named("A", 4), tau)
        assert assemblies == [4]

    @pytest.mark.parametrize(
        "tau", [0.6, {(1, 2): 0.6, (2, 3): 0.6}], ids=["constant", "per-edge"]
    )
    def test_no_assembly_past_what_the_verdict_needs(self, assemblies, tau):
        """Every tau reaches its verdict from the one Gram matrix it
        assembles, also when no configuration exists."""
        with pytest.raises(ValueError, match="no configuration exists"):
            construct_configuration(named("A", 3), tau)
        assert assemblies == [3]

    def test_vectors_reproduce_the_gram_matrix(self):
        g = named("D", 6)
        c = construct_configuration(g, 0.2)
        assert np.linalg.norm(c.vectors @ c.vectors.T - gram_matrix(g, 0.2)) < 1e-12

    def test_edgeless_graph_gives_an_orthonormal_frame(self):
        g = Graph(3, frozenset())
        c = construct_configuration(g, 0.5)
        assert c.ambient_dim == 3
        assert np.allclose(c.vectors @ c.vectors.T, np.eye(3), atol=1e-12)

    def test_single_vertex(self):
        c = construct_configuration(Graph(1, frozenset()), 0.7)
        assert c.ambient_dim == 1 and c.size == 1


def path_at_least_eigenvalue(n, target):
    """A_n with the one tau at which its least Gram eigenvalue,
    1 - 2 sqrt(tau) cos(pi/(n+1)), is ``target``."""
    root = (1.0 - target) / (2.0 * math.cos(math.pi / (n + 1)))
    return named("A", n), root * root


class TestCholeskyCertificate:
    """``construct`` first factors A - s I by Cholesky, with s from
    ``admissible._cholesky_shift``: PSD_TOL plus the error bounds of eigvalsh
    and of Cholesky. Success proves rank n and costs no eigensolve. On
    failure ``eigenvalues`` gives the verdict, the one a per-edge
    ``existence`` gives, so every refusal carries eigvalsh's least
    eigenvalue and computes no eigenvectors. ``eigenpairs`` runs only to
    factor a verdict that keeps fewer than n dimensions."""

    @pytest.mark.parametrize("side", ["above", "below"])
    def test_verdict_on_either_side_of_the_shift(self, name_calls, side):
        """Just above s the certificate holds; just below it, between
        PSD_TOL and s, it fails, ``eigenvalues`` gives the verdict and
        Cholesky factors the definite matrix. Either way ``construct`` keeps
        the dimension eigvalsh's rank gives."""
        g, tau = path_at_least_eigenvalue(96, 1e-9)
        shift = _cholesky_shift(96, np.linalg.norm(gram_matrix(g, tau)), PSD_TOL)
        gap = (shift - PSD_TOL) / 2
        g, tau = path_at_least_eigenvalue(96, shift + gap if side == "above" else shift - gap)
        a = gram_matrix(g, tau)
        lam = np.linalg.eigvalsh(a)
        assert _cholesky_shift(96, np.linalg.norm(a), PSD_TOL) == pytest.approx(shift, rel=1e-6)
        assert (lam[0] > shift) == (side == "above") and lam[0] > PSD_TOL
        calls = name_calls("eigenvalues", "eigenpairs")
        assert construct_configuration(g, tau).ambient_dim == int((lam > PSD_TOL).sum()) == 96
        expected = (0, 0) if side == "above" else (1, 0)
        assert (calls["eigenvalues"], calls["eigenpairs"]) == expected

    def test_near_cut_takes_the_verdict_from_eigenvalues(self, name_calls):
        """Per-edge A96 at this tau has a least Gram eigenvalue of about
        1e-9, where eigh and eigvalsh may disagree on the rank; the verdict
        is ``eigenvalues``', the one a per-edge ``existence`` reads, and
        its rank of 95 is factored through one ``eigenpairs`` call."""
        g = named("A", 96)
        tau = dict.fromkeys(g.edges, 0.250262421391915)
        evals = eigenpairs(gram_matrix(g, tau)).eigenvalues
        assert abs(evals[-1] - PSD_TOL) <= 1e-12
        calls = name_calls("eigenvalues", "eigenpairs")
        dim = construct_configuration(g, tau).ambient_dim
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (1, 1)
        assert dim == existence(g, tau).rank == 95

    def test_infeasible_error_text_comes_from_eigenvalues(self, name_calls):
        """The least eigenvalue an error prints is eigvalsh's, and a refusal
        computes no eigenvectors."""
        g = named("A", 3)
        calls = name_calls("eigenvalues", "eigenpairs")
        with pytest.raises(ValueError) as info:
            construct_configuration(g, 0.6)
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (1, 0)
        lam = np.linalg.eigvalsh(gram_matrix(g, 0.6))[0]
        assert str(info.value).endswith(f"negative eigenvalue {lam:.6e}")

    @pytest.mark.parametrize("per_edge", [False, True])
    def test_one_cholesky_past_a_failed_certificate(self, name_calls, per_edge):
        """The failed certificate is the only Cholesky factorisation of a
        singular construct (A5 at its endpoint 1/3) and of a refusal (A3 at
        0.6): no second one picks the solver."""
        calls = name_calls("_cholesky")
        for g, tau, refused in ((named("A", 5), 1 / 3, False), (named("A", 3), 0.6, True)):
            if per_edge:
                tau = dict.fromkeys(g.edges, tau)
            if refused:
                with pytest.raises(ValueError, match="no configuration exists"):
                    construct_configuration(g, tau)
            else:
                assert construct_configuration(g, tau).ambient_dim == g.n - 1
            assert calls["_cholesky"] == 1
            calls.clear()

    def test_twice_psd_tol_needs_no_eigensolve(self, name_calls):
        """The shift exceeds PSD_TOL by only rounding, so every tree whose
        least Gram eigenvalue is 2 PSD_TOL or more is certified."""
        calls = name_calls("eigenvalues", "eigenpairs")
        for family in ("A", "D"):
            for n in (5, 12, 40, 96):
                g = named(family, n)
                lam = np.linalg.eigvalsh(gram_matrix(g, 0.2))[0]
                # 1 - sqrt(tau) q = 2 PSD_TOL, with q = (1 - lam) / sqrt(0.2)
                root = (1.0 - 2 * PSD_TOL) * math.sqrt(0.2) / (1.0 - lam)
                tau = root * root
                least = np.linalg.eigvalsh(gram_matrix(g, tau))[0]
                assert least == pytest.approx(2 * PSD_TOL, abs=1e-13)
                assert construct_configuration(g, tau).ambient_dim == n
        assert (calls["eigenvalues"], calls["eigenpairs"]) == (0, 0)


def eigen_factor(g, tau):
    """U_k sqrt(Lambda_k): the leading eigenpairs of the Gram matrix, scaled,
    before the rotation into the canonical frame."""
    s = eigenpairs(gram_matrix(g, tau))
    k = int((s.eigenvalues > PSD_TOL).sum())
    return s.eigenvectors[:, :k] * np.sqrt(s.eigenvalues[:k])


def rotated_eigenpairs(m):
    """:func:`eigenpairs` with every degenerate eigenspace's basis turned by
    a random orthogonal matrix: another basis LAPACK could have returned."""
    s = eigenpairs(m)
    lam, vecs = s.eigenvalues, s.eigenvectors.copy()
    rng = np.random.default_rng(CORPUS_SEED)
    start = 0
    while start < len(lam):
        stop = start + 1
        while stop < len(lam) and lam[start] - lam[stop] < 1e-9:
            stop += 1
        if stop - start > 1:
            q, _ = np.linalg.qr(rng.standard_normal((stop - start, stop - start)))
            vecs[:, start:stop] = vecs[:, start:stop] @ q
        start = stop
    return Spectrum(lam, s.residual_bound, vecs)


FRAME_CASES = [("C8", 0.2), ("D~6", 0.2), ("E8", 0.2), ("A5", 1 / 3), ("D~4", 0.25), ("D96", 0.2)]


class TestCanonicalFrame:
    """``construct`` returns the lines in one frame: lower trapezoidal vectors
    with a non-negative diagonal, for a definite Gram matrix its Cholesky
    factor."""

    @pytest.mark.parametrize("spec,tau", FRAME_CASES)
    def test_lower_trapezoidal_with_non_negative_diagonal(self, spec, tau):
        v = construct_configuration(spec_graph(spec), tau).vectors
        assert np.all(np.triu(v, 1) == 0.0)
        assert np.all(np.diagonal(v) >= 0.0)

    def test_cholesky_factor_when_definite(self):
        checked = 0
        for g in random_connected_graphs(500, max_n=8):
            for tau in (0.1, 0.2):
                a = gram_matrix(g, tau)
                if np.linalg.eigvalsh(a)[0] <= 1e-9:
                    continue
                v = construct_configuration(g, tau).vectors
                assert np.max(np.abs(v - np.linalg.cholesky(a))) <= 1e-12, sorted(g.edges)
                checked += 1
        assert checked > 500

    def test_tree_vectors_are_sparse(self):
        v = construct_configuration(named("D", 96), 0.2).vectors
        assert np.count_nonzero(v) <= 2 * 96

    @pytest.mark.parametrize("spec", ["C8", "D~6"])
    def test_independent_of_the_eigenspace_basis(self, monkeypatch, spec):
        """At tau = 1/4 both Gram matrices are singular, so ``construct``
        factors them through their eigenvectors."""
        g = spec_graph(spec)
        a = gram_matrix(g, 0.25)
        # The turned basis really differs from LAPACK's ...
        assert np.max(np.abs(rotated_eigenpairs(a).eigenvectors - eigenpairs(a).eigenvectors)) > 1e-3
        before = construct_configuration(g, 0.25).vectors
        assert before.shape == (g.n, g.n - 1)
        solved = []
        monkeypatch.setattr(angleset.configurations, "eigenpairs",
                            lambda m: solved.append(m) or rotated_eigenpairs(m))
        # ... and the lines do not move.
        after = construct_configuration(g, 0.25).vectors
        assert len(solved) == 1  # the turned basis really reached construct
        assert np.max(np.abs(after - before)) <= 1e-12

    @pytest.mark.parametrize("spec,tau", FRAME_CASES)
    def test_flush_moves_entries_by_at_most_rounding(self, spec, tau):
        g = spec_graph(spec)
        a = gram_matrix(g, tau)
        if np.linalg.eigvalsh(a)[0] > PSD_TOL:
            unflushed = np.linalg.cholesky(a)
        else:
            r = np.linalg.qr(eigen_factor(g, tau).T, mode="r")
            unflushed = (r * np.copysign(1.0, np.diagonal(r))[:, None]).T
        v = construct_configuration(g, tau).vectors
        assert np.max(np.abs(v - unflushed)) <= g.n * np.finfo(float).eps

    @pytest.mark.parametrize("spec,tau", [(s, t) for s, t in FRAME_CASES if t == 0.2])
    def test_eigen_route_when_cholesky_fails(self, monkeypatch, name_calls, spec, tau):
        """A definite Gram matrix that Cholesky rejects in rounding still gets
        its lines, through the eigenvectors, in the same frame."""
        g = spec_graph(spec)
        cholesky = construct_configuration(g, tau).vectors

        def rejects(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", rejects)
        calls = name_calls("eigenpairs")
        eigen = construct_configuration(g, tau).vectors
        assert calls["eigenpairs"] == 1
        assert eigen.shape == cholesky.shape == (g.n, g.n)
        assert np.max(np.abs(eigen - cholesky)) <= g.n * np.finfo(float).eps

    def test_document_is_at_most_half_the_eigen_factor(self):
        g = named("D", 96)
        c = construct_configuration(g, 0.2)
        frame = json.dumps(configuration_document(c, g, 0.2))
        dense = json.dumps(configuration_document(
            SubspaceConfiguration(eigen_factor(g, 0.2)), g, 0.2))
        assert 2 * len(frame) <= len(dense)


class TestVerify:
    def test_report_fields_and_dict(self):
        g = named("A", 4)
        c = construct_configuration(g, 0.3)
        report = verify_configuration(c, g, 0.3)
        d = report.as_dict()
        assert set(d) == {
            "idempotency",
            "braid",
            "orthogonality",
            "gram",
            "tol",
            "passed",
        }
        assert d["passed"] is True
        assert report.max_residual == max(
            report.idempotency,
            report.braid,
            report.orthogonality,
            report.gram,
        )

    def test_non_unit_vector_breaks_idempotency(self):
        g = named("A", 3)
        c = construct_configuration(g, 0.3)
        tampered = c.vectors.copy()
        tampered[1] *= 1.01
        bad = SubspaceConfiguration(tampered)
        report = verify_configuration(bad, g, 0.3)
        assert not report.passed
        assert report.idempotency > 1e-3

    def test_wrong_tau_shows_in_braid_and_gram(self):
        g = named("A", 3)
        c = construct_configuration(g, 0.3)
        report = verify_configuration(c, g, 0.4)
        assert not report.passed
        assert report.braid > 1e-3 and report.gram > 1e-3
        assert report.idempotency <= 1e-12  # projections are still projections

    def test_missing_edge_shows_in_orthogonality(self):
        g = named("A", 3)
        c = construct_configuration(g, 0.3)
        pruned = Graph.from_edges([(1, 2)], n=3)
        report = verify_configuration(c, pruned, 0.3)
        assert report.orthogonality > 1e-3

    @pytest.mark.parametrize("weights", ["constant", "per-edge"])
    def test_one_alignment_per_verification(self, monkeypatch, weights):
        """The braid term and the target read one ``edge_arrays`` result."""
        g = named("D", 6)
        tau = 0.2 if weights == "constant" else dict.fromkeys(g.edges, 0.2)
        c = construct_configuration(g, tau)
        aligned = []
        real = TauWeighting.edge_arrays

        def counted(self, graph):
            aligned.append(graph)
            return real(self, graph)

        monkeypatch.setattr(TauWeighting, "edge_arrays", counted)
        assert verify_configuration(c, g, tau).passed
        assert aligned == [g]

    def test_per_edge_weighting_must_cover_the_graph(self):
        g = named("A", 3)
        c = construct_configuration(g, 0.3)
        with pytest.raises(ValueError, match="misses edge 2-3"):
            verify_configuration(c, g, {(1, 2): 0.3})
        with pytest.raises(ValueError, match="non-edge 1-3"):
            verify_configuration(c, g, {(1, 2): 0.3, (2, 3): 0.3, (1, 3): 0.3})

    def test_size_mismatch(self):
        c = construct_configuration(named("A", 3), 0.3)
        with pytest.raises(ValueError, match="covers 3 vertices"):
            verify_configuration(c, named("A", 4), 0.3)

    @pytest.mark.parametrize("huge", [1e308, 1e160])
    def test_products_that_overflow_are_refused(self, huge):
        """The document's entries are finite, so it loads, but V V^T
        overflows; a report of infinite residuals would mean nothing."""
        doc = {"ambient_dim": 2, "vectors": [[huge, 0.0], [0.0, 1.0]], "tau": 0.25,
               "graph": [[1, 2]]}
        config, g, w = load_configuration(doc)
        with pytest.raises(ValueError, match="^cannot verify: overflow encountered in "):
            verify_configuration(config, g, w)

    def test_a_nan_entry_is_refused(self):
        """A NaN raises no floating-point error, so it would otherwise come
        back as four NaN residuals and a plain ``passed: false``. The
        constructor refuses one, so it is written into the array after."""
        c = SubspaceConfiguration(np.array([[1.0, 0, 0], [0.5, 0.8, 0], [0, 0.5, 0.8]]))
        c.vectors[0, 0] = math.nan
        with pytest.raises(ValueError, match="^cannot verify: a residual is not finite$"):
            verify_configuration(c, named("A", 3), 0.3)

    def test_custom_tolerance_feeds_passed(self):
        """``passed`` compares the worst residual against ``VERIFY_TOL``:
        stretching a correct configuration by 1 + 1e-6 moves its residuals
        to about 2e-6, past the cut."""
        g = named("A", 3)
        c = construct_configuration(g, 0.3)
        exact = verify_configuration(c, g, 0.3)
        assert exact.passed and exact.max_residual <= VERIFY_TOL
        stretched = SubspaceConfiguration(c.vectors * (1 + 1e-6))
        report = verify_configuration(stretched, g, 0.3)
        assert not report.passed and report.max_residual > VERIFY_TOL


# Each as a JSON document with tau 1.0 on the edge 1-2, with the kind of
# entry that SubspaceConfiguration names.
NON_NUMERIC_VECTORS = [
    pytest.param([["1.0"], ["1.0"]], "str", id="string-rows"),
    pytest.param([["1.0", "0.0"], [1.0, 0.0]], "str", id="all-string-row"),
    pytest.param([[1.0, "0.0"], [1.0, 0.0]], "str", id="one-string"),
    pytest.param([[True], [True]], "bool", id="booleans"),
    pytest.param([[True, False], [True, False]], "bool", id="all-boolean-rows"),
    pytest.param([[1.0, 0.0], [True, 0.0]], "bool", id="one-true"),
]


class TestDocumentRoundTrip:
    def test_constant_tau(self):
        g = named("D", 5)
        c = construct_configuration(g, 0.2)
        report = verify_configuration(c, g, 0.2)
        doc = json.loads(json.dumps(configuration_document(c, g, 0.2, report)))
        assert doc["report"]["passed"] is True
        c2, g2, w2 = load_configuration(doc)
        assert g2.edges == g.edges and g2.n == g.n
        assert w2.constant == 0.2
        assert np.allclose(c2.vectors, c.vectors, atol=0)
        assert verify_configuration(c2, g2, w2).passed

    @pytest.mark.parametrize(
        "tau", [[[1, 2, 0.5], [1, 2, 0.7]], [[1, 2, 0.5], [2, 1, 0.7]]], ids=["same", "reversed"]
    )
    def test_edge_weighted_twice(self, tau):
        doc = {"ambient_dim": 1, "vectors": [[1.0], [1.0]], "tau": tau, "graph": [[1, 2]]}
        with pytest.raises(ValueError, match="^edge 1-2 weighted twice$"):
            load_configuration(doc)

    def test_per_edge_tau(self):
        g = named("A", 3)
        tau = {(1, 2): 0.4, (2, 3): 0.35}
        c = construct_configuration(g, tau)
        doc = json.loads(json.dumps(configuration_document(c, g, tau)))
        assert "report" not in doc
        c2, g2, w2 = load_configuration(doc)
        assert w2.per_edge == {(1, 2): 0.4, (2, 3): 0.35}
        assert verify_configuration(c2, g2, w2).passed

    def test_vectors_export_as_per_float_lists(self):
        """``tolist`` writes the same JSON as converting one float at a time."""
        g = named("E8")
        c = construct_configuration(g, 0.2)
        doc = configuration_document(c, g, 0.2, verify_configuration(c, g, 0.2))
        assert type(doc["vectors"][0][0]) is float
        by_float = dict(doc, vectors=[[float(x) for x in row] for row in c.vectors])
        assert json.dumps(doc, indent=2) == json.dumps(by_float, indent=2)

    def test_isolated_vertices_survive(self):
        g = Graph.from_edges([(1, 2)], n=4)
        c = construct_configuration(g, 0.5)
        _, g2, _ = load_configuration(configuration_document(c, g, 0.5))
        assert g2.n == 4 and g2.edges == {(1, 2)}

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            load_configuration({"vectors": [[1.0]]})

    @pytest.mark.parametrize("tau", [np.float32(0.2), np.float64(0.2)], ids=["float32", "float64"])
    def test_numpy_constant_tau(self, tau):
        g = named("D", 5)
        c = construct_configuration(g, tau)
        doc = json.loads(json.dumps(configuration_document(c, g, tau)))
        assert doc["tau"] == float(tau)
        c2, g2, w2 = load_configuration(doc)
        assert w2 == TauWeighting.of(tau) and type(w2.constant) is float
        assert verify_configuration(c2, g2, w2).passed

    def test_boolean_tau_is_refused(self):
        g = named("A", 2)
        c = construct_configuration(g, 1.0)
        with pytest.raises(ValueError, match="must be a real number"):
            configuration_document(c, g, True)

    @pytest.mark.parametrize("key", [(True, 2), (1.0, 2)], ids=["bool", "float"])
    def test_per_edge_labels_must_be_integers(self, key):
        g = named("A", 3)
        c = construct_configuration(g, 0.2)
        with pytest.raises(ValueError, match="vertex labels must be integers"):
            configuration_document(c, g, {key: 0.2, (2, 3): 0.3})

    def test_numpy_integer_labels(self):
        g = named("A", 3)
        tau = {(np.int64(2), np.int32(1)): 0.2, (2, 3): 0.3}
        c = construct_configuration(g, tau)
        doc = json.loads(json.dumps(configuration_document(c, g, tau)))
        assert doc["tau"] == [[1, 2, 0.2], [2, 3, 0.3]]
        assert load_configuration(doc)[2].per_edge == {(1, 2): 0.2, (2, 3): 0.3}

    def test_load_range_checks_each_value_once(self, tau_checks):
        g = named("D", 6)
        tau = {e: 0.1 + 0.01 * k for k, e in enumerate(sorted(g.edges))}
        doc = configuration_document(construct_configuration(g, tau), g, tau)
        tau_checks.clear()
        assert load_configuration(doc)[2].per_edge == tau
        assert sorted(tau_checks) == sorted(g.edges)

    @pytest.mark.parametrize(
        "ambient,vectors",
        [(3.9, [[1.0, 0.0, 0.0]]), ("3", [[1.0, 0.0, 0.0]]), (True, [[1.0]]),
         (None, [[1.0]]), ([3], [[1.0, 0.0, 0.0]])],
    )
    def test_ambient_dim_must_be_an_integer(self, ambient, vectors):
        doc = {"ambient_dim": ambient, "vectors": vectors, "tau": 0.5, "graph": []}
        with pytest.raises(ValueError, match="ambient_dim must be an integer"):
            load_configuration(doc)

    @pytest.mark.parametrize("doc", [[], [{"ambient_dim": 1}], "doc", 3, None])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ValueError, match="must be a JSON object"):
            load_configuration(doc)

    def test_more_vectors_than_max_vertices_are_refused_first(self):
        """The vector count is checked before any row is read."""
        n = MAX_VERTICES + 1
        for row in ([1.0], "x"):
            doc = {"ambient_dim": 1, "vectors": [row] * n, "tau": 0.5, "graph": []}
            with pytest.raises(GraphError, match=f"graph has {n} vertices"):
                load_configuration(doc)

    def test_ambient_mismatch(self):
        doc = {"ambient_dim": 5, "vectors": [[1.0, 0.0]], "tau": 0.5, "graph": []}
        with pytest.raises(ValueError, match="does not match"):
            load_configuration(doc)

    def test_empty_vectors(self):
        doc = {"ambient_dim": 0, "vectors": [], "tau": 0.5, "graph": []}
        with pytest.raises(ValueError, match="^vectors must be a 2-D array of rows, got 1-D$"):
            load_configuration(doc)

    @pytest.mark.parametrize(
        "tau,message",
        [
            ("x", "^tau must be a real number, got 'x'$"),
            (True, "^tau must be a real number, got True$"),
            ([5], r"^per-edge tau must be \[i, j, tau\] triples, got 5$"),
            ([[1, 2]], r"^per-edge tau must be \[i, j, tau\] triples, got \[1, 2\]$"),
            ([[1.0, 2, 0.5]], r"^vertex labels must be integers, got edge \(1\.0, 2\)$"),
            ([[1, 2, "0.5"]], "^tau on edge 1-2 must be a real number, got '0.5'$"),
            ([[1, 2, None]], "^tau on edge 1-2 must be a real number, got None$"),
            (None, r"^tau must be a number or a list of \[i, j, tau\] triples, got None$"),
        ],
        ids=["text", "bool", "number-item", "pair", "float-label", "text-value", "null-value",
             "null"],
    )
    def test_unreadable_tau(self, tau, message):
        """A list is read per edge and anything else as the constant, each
        by the gate of ``TauWeighting``; the document checks only that each
        item is a triple."""
        doc = {"ambient_dim": 1, "vectors": [[1.0]], "tau": tau, "graph": []}
        with pytest.raises(ValueError, match=message):
            load_configuration(doc)

    # The last two are a flat row and a bare number: reshaped, each would
    # load as one vertex in R^1 and match ambient_dim.
    @pytest.mark.parametrize(
        "vectors", [{"a": 1}, [[{"a": 1}]], [[[1.0]]], [["x"]], [1.0], 1.0]
    )
    def test_unreadable_vectors(self, vectors):
        doc = {"ambient_dim": 1, "vectors": vectors, "tau": 0.5, "graph": []}
        with pytest.raises(ValueError):
            load_configuration(doc)

    @pytest.mark.parametrize("vectors,kind", NON_NUMERIC_VECTORS)
    def test_non_numeric_entries(self, vectors, kind):
        """Strings and booleans convert to floats, and each of these documents
        would then pass verification; they are rejected instead."""
        doc = {"ambient_dim": len(vectors[0]), "vectors": vectors, "tau": 1.0, "graph": [[1, 2]]}
        with pytest.raises(ValueError, match=f"^vectors must be real numbers, got {kind} entries$"):
            load_configuration(doc)

    def test_integer_entries_are_numbers(self):
        doc = {"ambient_dim": 2, "vectors": [[1, 0], [1, 0]], "tau": 1.0, "graph": [[1, 2]]}
        config, g, w = load_configuration(doc)
        assert config.vectors.dtype == float
        assert verify_configuration(config, g, w).passed

    @pytest.mark.parametrize(
        "graph,message",
        [
            (5, r"^graph must be a list of \[i, j\] pairs, got int$"),
            ("1 2", r"^graph must be a list of \[i, j\] pairs, got str$"),
            ({"1": 2}, r"^graph must be a list of \[i, j\] pairs, got dict$"),
            ([5], "^edge 5 is not a pair of vertex labels$"),
            ([[1.9, 2]], r"^vertex labels must be integers, got edge \(1\.9, 2\)$"),
            ([[1.0, 2]], r"^vertex labels must be integers, got edge \(1\.0, 2\)$"),
            ([[True, 2]], r"^vertex labels must be integers, got edge \(True, 2\)$"),
            ([[1, 2, 3]], r"^edge \[1, 2, 3\] is not a pair of vertex labels$"),
            ([["1", "2"]], r"^vertex labels must be integers, got edge \('1', '2'\)$"),
        ],
        ids=["number", "text", "object", "number-item", "fractional-label", "float-label",
             "bool-label", "triple", "text-labels"],
    )
    def test_malformed_graph(self, graph, message):
        """The document asks for a list; ``Graph`` judges its pairs."""
        doc = {"ambient_dim": 1, "vectors": [[1.0], [0.0]], "tau": 0.5, "graph": graph}
        with pytest.raises(ValueError, match=message):
            load_configuration(doc)

    @pytest.mark.parametrize(
        "graph,message",
        [
            ([[1, 2], [2, 2]], "^loop edge 2-2$"),
            ([[2, 2], [1, 2], [2, 1]], "^loop edge 2-2$"),
            ([[1, 2], [2, 1], [3, 3]], "^duplicate edge 1-2$"),
            ([[1, 3]], "^edge 1-3 out of vertex range 1..2$"),
            ([[2, 2], [1, 2.0]], "^loop edge 2-2$"),
            ([[1, 2], [2, 1], ["1", 2]], "^duplicate edge 1-2$"),
        ],
    )
    def test_graph_errors_in_list_order(self, graph, message):
        """The first bad item in list order is named, as ``Graph`` names it
        (a malformed pair, a loop or a repeated edge), then an edge out of
        range."""
        doc = {"ambient_dim": 1, "vectors": [[1.0], [0.0]], "tau": 0.5, "graph": graph}
        with pytest.raises(ValueError, match=message):
            load_configuration(doc)


@functools.cache
def valid_documents():
    """Exported documents with a constant and a per-edge tau, as JSON reads
    them, each with the configuration, graph and weighting it holds."""
    cases = []
    for g, tau in ((named("D", 5), 0.2), (named("A", 4), {(1, 2): 0.4, (2, 3): 0.35, (3, 4): 0.3})):
        c = construct_configuration(g, tau)
        doc = json.loads(json.dumps(configuration_document(c, g, tau)))
        cases.append((doc, c.vectors, g, TauWeighting.of(tau)))
    return cases


# Oversized values, drawn by index: Hypothesis may repr what it samples
# from, and the repr of 10**5000 raises.
LARGE = (
    10 ** 400, -10 ** 400, 10 ** 5000, list(range(10 ** 5)),
    dict.fromkeys(map(str, range(20_000)), 0.5), [[1.0]] * (MAX_VERTICES + 1),
    [[1, 2]] * 5000, [[1, 2, "0.5"]] * 5000, "x" * 10 ** 6,
)

# What a document may hold in place of any value: every JSON type, entries
# JSON cannot write (NaN, infinities, huge ints), and oversized containers.
SCALARS = (
    st.sampled_from([math.nan, -math.inf, True, None, "0.5"]) | st.booleans()
    | st.integers(-3, 9) | st.floats() | st.text(max_size=50)
    | st.integers(0, len(LARGE) - 1).map(LARGE.__getitem__)
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


@st.composite
def mutated_documents(draw):
    """A valid document with at most one field changed: the field replaced
    or dropped, one of its items replaced, or one entry of an item replaced,
    added or removed (ragged rows, bad pairs and triples)."""
    doc, vectors, g, w = draw(st.sampled_from(valid_documents()))
    doc = copy.deepcopy(doc)
    field = draw(st.sampled_from([None, "vectors", "tau", "graph", "ambient_dim"]))
    if field is None:
        return doc, (vectors, g, w)
    how = draw(st.sampled_from(["replace", "drop", "item", "entry", "append", "pop"]))
    value = doc[field]
    if how == "drop":
        del doc[field]
    elif how == "replace" or type(value) is not list or not value:
        doc[field] = draw(JUNK)
    else:
        item = draw(st.sampled_from(value))
        if how == "item" or type(item) is not list or not item:
            value[value.index(item)] = draw(JUNK)
        elif how == "entry":
            item[draw(st.integers(0, len(item) - 1))] = draw(SCALARS | JUNK)
        elif how == "append":
            item.append(draw(SCALARS | JUNK))
        else:
            item.pop()
    return doc, None


@given(mutated_documents())
@settings(max_examples=400, deadline=None)
def test_documents_load_or_are_refused_in_one_short_line(case):
    """``load_configuration`` raises nothing but ``ValueError`` (GraphError
    included), and its message is one line of at most 120 characters; an
    untouched document reloads to what it holds."""
    doc, held = case
    try:
        config, g, w = load_configuration(doc)
    except ValueError as exc:
        message = str(exc)
        assert held is None, f"an untouched document was refused: {message}"
        assert "\n" not in message and len(message) <= 120, message[:300]
        return
    if held is not None:
        vectors, g0, w0 = held
        assert np.array_equal(config.vectors, vectors) and g == g0 and w == w0


@given(
    st.integers(min_value=2, max_value=7),
    st.data(),
    st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_construct_then_verify_on_random_feasible_trees(n, data, scale):
    idx = data.draw(st.integers(min_value=0, max_value=n ** max(0, n - 2) - 1))
    g = tree_from_pruefer(n, pruefer_from_index(n, idx))
    tau = scale * sigma_tree(g).upper
    c = construct_configuration(g, tau)
    report = verify_configuration(c, g, tau)
    assert report.passed, report.as_dict()


def pairwise_residuals(vectors, g, tau):
    """Reference for :func:`verify_configuration`: every relation recomputed
    from the d x d projection matrices, one vertex pair at a time, and the
    Gram deviation of the lines, |v_i . v_j| against the target, so that
    negating a vector changes nothing."""
    projs = [np.outer(row, row) for row in vectors]
    idem = max(float(np.linalg.norm(p @ p - p)) for p in projs)
    braid = 0.0
    for i, j in g.edges:
        t = tau[i, j] if isinstance(tau, dict) else tau
        pi, pj = projs[i - 1], projs[j - 1]
        braid = max(braid, float(np.linalg.norm(pi @ pj @ pi - t * pi)))
        braid = max(braid, float(np.linalg.norm(pj @ pi @ pj - t * pj)))
    orth = 0.0
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            if (i, j) in g.edges:
                continue
            pi, pj = projs[i - 1], projs[j - 1]
            orth = max(orth, float(np.linalg.norm(pi @ pj)))
            orth = max(orth, float(np.linalg.norm(pj @ pi)))
    gram = float(np.linalg.norm(np.abs(vectors @ vectors.T) - gram_matrix(g, tau)))
    return {"idempotency": idem, "braid": braid, "orthogonality": orth, "gram": gram}


def oracle_cases(graphs):
    """A constructed configuration per graph, the same lines with one vector
    negated, then four tampered copies: one row scaled, noise on every
    vector, tau lowered, and one edge pruned."""
    rng = np.random.default_rng(CORPUS_SEED)
    for k, g in enumerate(graphs):
        spec = graph_spectrum(g)
        mu, r = -spec.min_eigenvalue, spec.index
        c = rng.uniform(0.3, 0.9)
        if k % 3 == 0:
            tau = min(1.0, 1.0 / mu**2)  # singular Gram matrix: dimensions drop
        elif k % 3 == 1:
            tau = c / mu**2
        else:
            # Edge weights below sqrt(c)/r keep the weighted adjacency's spectral
            # radius below sqrt(c) < 1, so the Gram matrix stays definite.
            tau = {e: c * rng.uniform(0.5, 1.0) / r**2 for e in sorted(g.edges)}
        v = construct_configuration(g, tau).vectors
        yield "clean", v, g, tau
        flipped = v.copy()
        flipped[k % g.n] *= -1.0
        yield "flipped row", flipped, g, tau
        scaled = v.copy()
        scaled[k % g.n] *= 1.01
        yield "scaled row", scaled, g, tau
        yield "noisy", v + 1e-3 * rng.standard_normal(v.shape), g, tau
        if isinstance(tau, dict):
            yield "wrong tau", v, g, {e: 0.9 * t for e, t in tau.items()}
        else:
            yield "wrong tau", v, g, 0.9 * tau
        cut = sorted(g.edges)[k % g.num_edges]
        pruned = Graph(g.n, g.edges - {cut})
        if isinstance(tau, dict):
            tau = {e: t for e, t in tau.items() if e != cut}
        yield "pruned edge", v, pruned, tau


def test_closed_forms_match_the_pairwise_reference(random_connected_corpus):
    reports = 0
    for kind, v, g, tau in oracle_cases(random_connected_corpus):
        config = SubspaceConfiguration(v)
        report = verify_configuration(config, g, tau)
        want = pairwise_residuals(v, g, tau)
        for field, value in want.items():
            assert abs(getattr(report, field) - value) <= 1e-12, (kind, field, sorted(g.edges))
        assert report.passed == (max(want.values()) <= VERIFY_TOL)
        assert report.passed == (kind in ("clean", "flipped row")), (kind, report.as_dict())
        if kind == "flipped row":  # the same lines: negating a vector changes no bit
            assert same_bits(report, clean), sorted(g.edges)
        if kind == "clean":
            clean = report
            # The construction brings its own read-only V V^T, so a verify
            # that wrote into it would raise; its report must match bit for bit.
            built = construct_configuration(g, tau)
            assert not built._gram.flags.writeable
            assert np.array_equal(built.vectors, v)
            assert same_bits(verify_configuration(built, g, tau), report), kind
        reports += 1
    assert reports == 6 * len(random_connected_corpus)


def same_bits(a: VerificationReport, b: VerificationReport) -> bool:
    return all(
        float.hex(getattr(a, name)) == float.hex(getattr(b, name))
        for name in VerificationReport.__annotations__
    )


@pytest.mark.parametrize("per_edge", [False, True], ids=["constant", "per-edge"])
def test_construct_and_verify_align_the_edges_once(monkeypatch, per_edge):
    """Construct and verify read the edges through the graph's one edge
    index, which walks the edge set: it is built once for both."""
    builds = []
    real = vars(Graph)["_edge_index"].func

    def counted(g):
        builds.append(g)
        return real(g)

    memo = functools.cached_property(counted)
    memo.__set_name__(Graph, "_edge_index")
    monkeypatch.setattr(Graph, "_edge_index", memo)
    g = named("D", 9)
    tau = {e: 0.2 for e in g.edges} if per_edge else 0.2
    report = verify_configuration(construct_configuration(g, tau), g, tau)
    assert report.passed
    assert len(builds) == 1 and builds[0] is g
