import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, strategies as st

from angleset import (
    Graph,
    GraphError,
    NamedFamily,
    adjacency_matrix,
    component_vertex_sets,
    generate_named,
    is_bipartite,
    is_connected,
    is_tree,
    parse_edge_list,
    parse_named_spec,
    tree_from_pruefer,
)
from angleset.graphs import induced_subgraph


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, frozenset(edges))


class TestGraphConstruction:
    def test_from_edges_normalizes_orientation(self):
        g = Graph.from_edges([(3, 1), (2, 3)])
        assert g.n == 3
        assert g.edges == {(1, 3), (2, 3)}

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            Graph.from_edges([(2, 2)])

    def test_duplicate_rejected_either_orientation(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges([(1, 2), (2, 1)])

    @pytest.mark.parametrize("edges", [[(1, 2.7), (2, 3)], [("1", "3")], [(True, 2)]])
    def test_non_integer_labels_rejected(self, edges):
        # int() would round 2.7 to 2 and parse "3" as 3; operator.index(True)
        # would give 1.
        with pytest.raises(GraphError, match="vertex labels must be integers"):
            Graph.from_edges(edges)

    def test_numpy_integer_labels_accepted(self):
        g = Graph.from_edges([(np.int64(3), np.int32(1))])
        assert g.n == 3 and g.edges == {(1, 3)}
        assert all(type(v) is int for e in g.edges for v in e)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.True_, "3", None])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(GraphError, match="vertex count must be an integer"):
            Graph(n, frozenset())

    def test_numpy_integer_vertex_count_becomes_a_python_int(self):
        g = Graph(np.int64(3), frozenset({(1, 3)}))
        assert type(g.n) is int and g.n == 3

    def test_explicit_n_allows_isolated_vertices(self):
        g = Graph.from_edges([(1, 2)], n=5)
        assert g.n == 5
        assert g.degree(5) == 0

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of vertex range"):
            Graph(2, frozenset({(1, 3)}))

    def test_non_canonical_edge_rejected(self):
        with pytest.raises(GraphError, match="canonical"):
            Graph(3, frozenset({(3, 1)}))

    def test_degree_and_neighbors(self):
        g = Graph.from_edges([(1, 2), (1, 3), (1, 4)])
        assert g.degree(1) == 3
        assert g.neighbors(1) == {2, 3, 4}
        assert g.neighbors(2) == {1}
        with pytest.raises(GraphError):
            g.neighbors(9)


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("1 2\n2 3\n")
        assert g.n == 3
        assert g.edges == {(1, 2), (2, 3)}

    def test_comments_blank_lines_and_header(self):
        text = "# a path plus slack vertices\n\nn 5\n1 2\n# middle\n2 3\n"
        g = parse_edge_list(text)
        assert g.n == 5
        assert g.edges == {(1, 2), (2, 3)}

    def test_header_only_gives_edgeless_graph(self):
        g = parse_edge_list("n 3\n")
        assert g.n == 3 and g.num_edges == 0

    def test_n_defaults_to_max_label(self):
        assert parse_edge_list("2 7\n").n == 7

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list("1 2\n3 4 5\n")

    def test_non_integer_label(self):
        with pytest.raises(GraphError, match="integers"):
            parse_edge_list("1 x\n")

    def test_loop_reports_lineno(self):
        with pytest.raises(GraphError, match="line 3: loop"):
            parse_edge_list("# c\n1 2\n3 3\n")

    def test_duplicate_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2: duplicate edge 1-2"):
            parse_edge_list("1 2\n2 1\n")

    def test_label_zero_rejected(self):
        with pytest.raises(GraphError, match="start at 1"):
            parse_edge_list("0 1\n")

    def test_header_too_small_rejected(self):
        with pytest.raises(GraphError, match="exceeds declared"):
            parse_edge_list("n 2\n1 3\n")

    def test_empty_input_rejected(self):
        with pytest.raises(GraphError, match="empty"):
            parse_edge_list("# nothing here\n")


class TestNamedFamilies:
    @pytest.mark.parametrize(
        "spec,family,size",
        [
            ("A5", "A", 5),
            ("D4", "D", 4),
            ("E6", "E6", None),
            ("E~8", "E~8", None),
            ("A~2", "A~", 2),
            ("D~10", "D~", 10),
            ("C6", "cycle", 6),
            ("P3", "path", 3),
            ("K1,4", "star", 4),
            ("K1,12", "star", 12),
        ],
    )
    def test_parse_named_spec(self, spec, family, size):
        fam = parse_named_spec(spec)
        assert (fam.family, fam.size) == (family, size)
        assert fam.vertex_count == generate_named(fam).n

    @pytest.mark.parametrize(
        "bad", ["", "B3", "E5", "A", "K2,3", "A-1", "E~9", "K1,", "C1,4", "a5", "A~~3", "E6~"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(GraphError):
            parse_named_spec(bad)

    @pytest.mark.parametrize(
        "family,size,least",
        [("A", 0, 1), ("D", 3, 4), ("A~", 1, 2), ("D~", 3, 4), ("cycle", 2, 3)],
    )
    def test_size_constraints(self, family, size, least):
        with pytest.raises(GraphError, match=f">= {least}"):
            NamedFamily(family, size)

    def test_fixed_families_take_no_size(self):
        with pytest.raises(GraphError, match="no size"):
            NamedFamily("E7", 7)

    def test_path_layout(self):
        g = generate_named(NamedFamily("A", 4))
        assert g.edges == {(1, 2), (2, 3), (3, 4)}
        assert generate_named(NamedFamily("A", 1)).n == 1

    def test_d4_is_the_three_leaf_star(self):
        g = generate_named(NamedFamily("D", 4))
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 3]

    E_LAYOUTS = {
        "E6": {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)},
        "E7": {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)},
        "E8": {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 8)},
        "E~6": {(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7)},
        "E~7": {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (4, 8)},
        "E~8": {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (3, 9)},
    }

    @pytest.mark.parametrize("tag", list(E_LAYOUTS))
    def test_e_type_layouts(self, tag):
        g = generate_named(NamedFamily(tag))
        assert g.n == len(self.E_LAYOUTS[tag]) + 1
        assert g.edges == self.E_LAYOUTS[tag]

    def test_cycle_alias_matches_tilde_a(self):
        assert generate_named(NamedFamily("cycle", 5)).edges == generate_named(
            NamedFamily("A~", 4)
        ).edges

    def test_path_alias_matches_a(self):
        assert generate_named(NamedFamily("path", 6)).edges == generate_named(
            NamedFamily("A", 6)
        ).edges

    def test_tilde_d4_is_the_four_leaf_star(self):
        g = generate_named(NamedFamily("D~", 4))
        assert g.n == 5
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 1, 4]

    def test_tilde_families_have_one_more_vertex_than_their_subscript(self):
        for family, size in [("A~", 5), ("D~", 7)]:
            assert generate_named(NamedFamily(family, size)).n == size + 1

    def test_star_layout(self):
        g = generate_named(NamedFamily("star", 4))
        assert g.n == 5
        assert g.degree(1) == 4


class TestPredicates:
    def test_path_is_tree_and_bipartite(self):
        g = generate_named(NamedFamily("A", 5))
        assert is_connected(g) and is_tree(g) and is_bipartite(g)

    def test_odd_cycle_not_bipartite(self):
        assert not is_bipartite(generate_named(NamedFamily("cycle", 5)))
        assert not is_tree(generate_named(NamedFamily("cycle", 5)))

    def test_even_cycle_bipartite(self):
        assert is_bipartite(generate_named(NamedFamily("cycle", 6)))

    def test_disconnected_graph(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        assert not is_connected(g)
        assert not is_tree(g)  # right edge count needs connectivity too

    def test_single_vertex_is_a_tree(self):
        assert is_tree(Graph(1, frozenset()))

    def test_components_relabel(self):
        g = Graph.from_edges([(2, 5), (3, 4)], n=6)
        assert component_vertex_sets(g) == [(1,), (2, 5), (3, 4), (6,)]
        comps = [induced_subgraph(g, vs) for vs in component_vertex_sets(g)]
        assert [c.n for c in comps] == [1, 2, 2, 1]
        assert comps[1].edges == {(1, 2)}


def _bfs_component_sets(g):
    """Breadth-first reference for component_vertex_sets."""
    nbrs = {v: set() for v in g.vertices}
    for i, j in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    seen, out = set(), []
    for start in g.vertices:
        if start in seen:
            continue
        comp, queue = {start}, deque([start])
        while queue:
            for u in nbrs[queue.popleft()] - comp:
                comp.add(u)
                queue.append(u)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


class TestComponentsByUnionFind:
    def test_matches_breadth_first_search_on_random_graphs(self):
        rng = random.Random(4462)
        disconnected = isolated = 0
        for _ in range(600):
            n = rng.randint(1, 14)
            p = rng.uniform(0.0, 0.35)
            pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            g = Graph(n, frozenset(e for e in pairs if rng.random() < p))
            want = _bfs_component_sets(g)
            assert component_vertex_sets(g) == want
            assert is_connected(g) == (len(want) == 1)
            assert is_tree(g) == (len(want) == 1 and g.num_edges == n - 1)
            disconnected += len(want) > 1
            isolated += any(len(c) == 1 for c in want) and n > 1
        assert disconnected > 100 and isolated > 100

    @pytest.mark.parametrize(
        "query", [is_tree, is_connected, component_vertex_sets]
    )
    @pytest.mark.parametrize(
        "g",
        [
            generate_named(NamedFamily("E~8")),
            generate_named(NamedFamily("cycle", 6)),
            Graph.from_edges([(2, 5), (3, 4)], n=6),
        ],
        ids=["tree", "cycle", "disconnected"],
    )
    def test_neighbour_sets_stay_unbuilt(self, query, g):
        g = Graph(g.n, g.edges)
        query(g)
        assert "_adjacency" not in g.__dict__


class TestAdjacencyMatrix:
    def test_triangle(self):
        g = generate_named(NamedFamily("cycle", 3))
        expected = np.ones((3, 3), dtype=int) - np.eye(3, dtype=int)
        assert np.array_equal(adjacency_matrix(g), expected)

    def test_single_vertex(self):
        assert np.array_equal(adjacency_matrix(Graph(1, frozenset())), np.zeros((1, 1), int))

    @given(graphs())
    def test_row_sums_are_degrees(self, g):
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert np.array_equal(np.diag(a), np.zeros(g.n, int))
        assert [int(s) for s in a.sum(axis=0)] == [g.degree(v) for v in g.vertices]


class TestEdgeIndex:
    def test_aligned_read_only_and_kept(self):
        g = Graph.from_edges([(4, 2), (1, 2), (3, 4), (5, 1)], n=6)
        edges, i, j = index = g._edge_index
        assert sorted(edges) == sorted(g.edges)
        assert list(zip(i + 1, j + 1)) == edges
        assert not i.flags.writeable and not j.flags.writeable
        adjacency_matrix(g)
        assert g._edge_index is index
        assert "_adjacency" not in g.__dict__

    def test_no_edges(self):
        edges, i, j = Graph(3, frozenset())._edge_index
        assert edges == [] and i.size == j.size == 0


class TestTreeEnumeration:
    def test_known_pruefer_decode(self):
        g = tree_from_pruefer(6, (4, 4, 4, 5))
        assert g.edges == {(1, 4), (2, 4), (3, 4), (4, 5), (5, 6)}

    def test_pruefer_validation(self):
        with pytest.raises(GraphError):
            tree_from_pruefer(1, ())
        with pytest.raises(GraphError, match="length"):
            tree_from_pruefer(5, (1, 2))
        with pytest.raises(GraphError, match="out of range"):
            tree_from_pruefer(4, (0, 2))

    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_cayley_counts(self, n, count):
        # Decoding is a bijection: every sequence gives a tree, and the
        # n**(n-2) sequences give n**(n-2) distinct trees.
        seqs = itertools.product(range(1, n + 1), repeat=n - 2)
        trees = [tree_from_pruefer(n, seq) for seq in seqs]
        assert len(trees) == count
        assert len({t.edges for t in trees}) == count  # all distinct
        assert all(is_tree(t) for t in trees)


@given(graphs())
def test_components_partition_vertices(g):
    sets = component_vertex_sets(g)
    flat = [v for block in sets for v in block]
    assert sorted(flat) == list(g.vertices)
    assert all(is_connected(induced_subgraph(g, block)) for block in sets)


@given(graphs())
def test_trees_are_bipartite(g):
    if is_tree(g):
        assert is_bipartite(g)
