import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import angleset.classify
from angleset import (
    Graph,
    IndexKind,
    NamedFamily,
    QuarterPosition,
    classify_index,
    classify_structure,
    generate_named,
    parse_named_spec,
    sigma_tree,
    trichotomy,
)
from corpus import (
    dynkin_family_graphs,
    extended_family_graphs,
    pruefer_from_index,
    shuffled,
)
from angleset.graphs import tree_from_pruefer


def spider(*legs):
    """Tree with one branch vertex (label 1) and paths of the given lengths."""
    edges = []
    nxt = 2
    for leg in legs:
        prev = 1
        for _ in range(leg):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(edges)


class TestComponentLabels:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_paths(self, n):
        (c,) = classify_structure(generate_named(NamedFamily("A", n))).components
        assert (c.family, c.size, c.label) == ("A", n, f"A{n}")
        assert not c.is_extended

    @pytest.mark.parametrize("n", range(4, 9))
    def test_d_family(self, n):
        (c,) = classify_structure(generate_named(NamedFamily("D", n))).components
        assert (c.family, c.size) == ("D", n)

    @pytest.mark.parametrize("tag,size", [("E6", 6), ("E7", 7), ("E8", 8)])
    def test_e_family(self, tag, size):
        (c,) = classify_structure(generate_named(NamedFamily(tag))).components
        assert (c.family, c.size, c.label) == (tag, size, tag)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_cycles(self, n):
        (c,) = classify_structure(generate_named(NamedFamily("A~", n))).components
        assert (c.family, c.size, c.label) == ("A~", n, f"A~{n}")
        assert c.is_extended

    @pytest.mark.parametrize("n", range(4, 9))
    def test_double_forks(self, n):
        (c,) = classify_structure(generate_named(NamedFamily("D~", n))).components
        assert (c.family, c.size) == ("D~", n)

    @pytest.mark.parametrize("tag,size", [("E~6", 6), ("E~7", 7), ("E~8", 8)])
    def test_extended_e_family(self, tag, size):
        (c,) = classify_structure(generate_named(NamedFamily(tag))).components
        assert (c.family, c.size) == (tag, size)

    def test_stars(self):
        for leaves, family, size in [(3, "D", 4), (4, "D~", 4)]:
            g = generate_named(NamedFamily("star", leaves))
            (c,) = classify_structure(g).components
            assert (c.family, c.size) == (family, size)
        (c,) = classify_structure(generate_named(NamedFamily("star", 5))).components
        assert c.family == "supercritical" and c.label == "supercritical"

    @pytest.mark.parametrize(
        "legs",
        [(2, 2, 3), (1, 3, 4), (1, 2, 6), (3, 3, 3), (1, 1, 1, 2)],
    )
    def test_supercritical_spiders(self, legs):
        (c,) = classify_structure(spider(*legs)).components
        assert c.family == "supercritical"
        assert c.size is None

    def test_double_fork_with_a_long_prong_is_supercritical(self):
        # like the double fork, but one outward arm has length 2
        g = Graph.from_edges([(1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (7, 8)])
        (c,) = classify_structure(g).components
        assert c.family == "supercritical"

    def test_cycle_with_chord(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        (c,) = classify_structure(g).components
        assert c.family == "supercritical"

    def test_cycle_with_pendant(self):
        g = Graph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)])
        (c,) = classify_structure(g).components
        assert c.family == "supercritical"


class TestRelabelInvariance:
    @pytest.mark.parametrize(
        "tag", ["A6", "D7", "E8", "A~5", "D~6", "E~7", "E~8"]
    )
    def test_families_survive_relabeling(self, tag):
        base = dict(dynkin_family_graphs() + extended_family_graphs())[tag]
        for seed in range(5):
            g, _ = shuffled(base, seed)
            (c,) = classify_structure(g).components
            assert c.label == tag


class TestMultiComponent:
    def test_vertex_sets_carry_original_labels(self):
        # A3 on {1,4,6} and A2 on {2,5}, vertex 3 isolated
        g = Graph.from_edges([(1, 4), (4, 6), (2, 5)], n=6)
        comps = classify_structure(g).components
        labels = {c.vertices: c.label for c in comps}
        assert labels == {(1, 4, 6): "A3", (2, 5): "A2", (3,): "A1"}

    def test_components_are_found_once(self, monkeypatch):
        calls = []
        real = angleset.classify.component_vertex_sets
        monkeypatch.setattr(angleset.classify, "component_vertex_sets",
                            lambda g: calls.append(g) or real(g))
        g = Graph.from_edges([(1, 4), (4, 6), (2, 5)], n=6)
        assert len(classify_structure(g).components) == 3
        assert calls == [g]

    def test_no_graph_is_copied(self, monkeypatch):
        """Every component, of a connected graph or not, is shaped in place:
        classify_structure builds no Graph."""
        built = []
        real = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__",
                            lambda self: built.append(self) or real(self))
        graphs = [generate_named(parse_named_spec(tag))
                  for tag in ("A1", "A7", "D~6", "E~8", "C6", "K1,5")]
        g = Graph.from_edges([(1, 4), (4, 6), (2, 5), (7, 8), (8, 9), (7, 9)], n=9)
        built.clear()
        for h in graphs:
            classify_structure(h)
        labels = [c.label for c in classify_structure(g).components]
        assert labels == ["A3", "A2", "A1", "A~2"]
        assert built == []

    def test_prediction_takes_the_worst_component(self):
        a3 = [(1, 2), (2, 3)]
        cycle = [(4, 5), (5, 6), (4, 6)]
        k4 = [(7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10)]
        assert (
            classify_structure(Graph.from_edges(a3)).predicted_index_kind
            is IndexKind.SUBCRITICAL
        )
        assert (
            classify_structure(Graph.from_edges(a3 + cycle)).predicted_index_kind
            is IndexKind.CRITICAL
        )
        assert (
            classify_structure(Graph.from_edges(a3 + cycle + k4)).predicted_index_kind
            is IndexKind.SUPERCRITICAL
        )


class TestNumericRoute:
    def test_triangle_is_exactly_critical(self):
        got = classify_index(generate_named(NamedFamily("A~", 2)))
        assert got.kind is IndexKind.CRITICAL
        assert got.index == pytest.approx(2.0, abs=1e-12)

    def test_path_subcritical(self):
        got = classify_index(generate_named(NamedFamily("A", 9)))
        assert got.kind is IndexKind.SUBCRITICAL
        assert got.index == pytest.approx(2 * math.cos(math.pi / 10), abs=1e-12)

    def test_complete_graph_supercritical(self):
        g = Graph.from_edges([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        got = classify_index(g)
        assert got.kind is IndexKind.SUPERCRITICAL
        assert got.index == pytest.approx(3.0, abs=1e-12)


class TestRouteAgreement:
    def test_on_generated_families(self):
        for tag, g in dynkin_family_graphs():
            assert classify_index(g).kind is IndexKind.SUBCRITICAL, tag
            assert classify_structure(g).predicted_index_kind is IndexKind.SUBCRITICAL
        for tag, g in extended_family_graphs():
            assert classify_index(g).kind is IndexKind.CRITICAL, tag
            assert classify_structure(g).predicted_index_kind is IndexKind.CRITICAL

    def test_on_random_connected_graphs(self, random_connected_corpus):
        for g in random_connected_corpus[:120]:
            assert (
                classify_structure(g).predicted_index_kind
                is classify_index(g).kind
            )


@given(st.integers(min_value=2, max_value=8), st.data())
@settings(max_examples=80, deadline=None)
def test_structure_matches_index_on_random_trees(n, data):
    idx = data.draw(st.integers(min_value=0, max_value=n ** max(0, n - 2) - 1))
    g = tree_from_pruefer(n, pruefer_from_index(n, idx))
    assert classify_structure(g).predicted_index_kind is classify_index(g).kind


@st.composite
def larger_trees(draw):
    """A labeled tree on 9 to 30 vertices from a drawn Pruefer sequence."""
    n = draw(st.integers(min_value=9, max_value=30))
    return tree_from_pruefer(n, draw(st.lists(st.integers(1, n), min_size=n - 2,
                                              max_size=n - 2)))


@st.composite
def grown_shapes(draw):
    """A D, D~, E or E~ shape with a path of 0 to 8 new vertices hung from one
    of its leaves: the growth crosses from Dynkin to extended to neither."""
    tag = draw(st.sampled_from(["D", "D~", "E6", "E7", "E8", "E~6", "E~7", "E~8"]))
    size = draw(st.integers(4, 12)) if tag in ("D", "D~") else None
    base = generate_named(NamedFamily(tag, size))
    degree = Counter(v for e in base.edges for v in e)
    at = draw(st.sampled_from(sorted(v for v in base.vertices if degree[v] == 1)))
    grown = range(base.n + 1, base.n + 1 + draw(st.integers(0, 8)))
    path = [at, *grown]
    return Graph(base.n + len(grown), base.edges | frozenset(zip(path, path[1:])))


def _quarter_of(upper):
    """Where an interval endpoint sits against 1/4, at criterion 07's cut."""
    if upper > 0.25 + 1e-9:
        return QuarterPosition.ABOVE
    if upper < 0.25 - 1e-9:
        return QuarterPosition.BELOW
    return QuarterPosition.EQUAL


def _shape_matches_the_numeric_index(g):
    """``trichotomy`` reads the shape alone; the numeric index checks it."""
    assert classify_structure(g).predicted_index_kind is classify_index(g).kind
    assert trichotomy(g) is _quarter_of(sigma_tree(g).upper)


@given(larger_trees())
@settings(max_examples=60, deadline=None)
def test_shape_matches_the_numeric_index_on_larger_trees(g):
    _shape_matches_the_numeric_index(g)


@given(grown_shapes())
@settings(max_examples=300, deadline=None)
def test_shape_matches_the_numeric_index_on_grown_shapes(g):
    _shape_matches_the_numeric_index(g)
