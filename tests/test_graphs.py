import itertools
import json
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from angleset import (
    Graph,
    GraphError,
    NamedFamily,
    TauWeighting,
    adjacency_matrix,
    component_vertex_sets,
    configuration_document,
    construct_configuration,
    existence,
    generate_named,
    is_connected,
    is_tree,
    load_configuration,
    parse_edge_list,
    parse_named_spec,
    tree_from_pruefer,
)
from angleset.graphs import _SHOWN_MAX, _shown, check_vertex_count


def degrees(g):
    """Degree of each vertex ``1..n``, counted from the endpoints in
    ``g.edges``."""
    count = [0] * (g.n + 1)
    for i, j in g.edges:
        count[i] += 1
        count[j] += 1
    return count[1:]


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
        message = f"^vertex labels must be integers, got edge {re.escape(repr(edges[0]))}$"
        with pytest.raises(GraphError, match=message):
            Graph.from_edges(edges)

    def test_numpy_integer_labels_accepted(self):
        g = Graph.from_edges([(np.int64(3), np.int32(1))])
        assert g.n == 3 and g.edges == {(1, 3)}
        assert all(type(v) is int for e in g.edges for v in e)

    @pytest.mark.parametrize("edge", [(1, 2.5), (True, 2), (1.0, 2.0)])
    def test_direct_construction_rejects_non_integer_labels(self, edge):
        """``Graph(n, edges)`` keeps the one vertex-pair rule, with its
        message: 2.5 would read as vertex 2 in a matrix index and write a
        document ``load_configuration`` refuses."""
        message = f"^vertex labels must be integers, got edge {re.escape(repr(edge))}$"
        with pytest.raises(GraphError, match=message):
            Graph(3, frozenset({edge}))

    def test_direct_construction_stores_numpy_labels_as_python_ints(self):
        g = Graph(3, frozenset({(np.int64(1), np.int64(3)), (2, 3)}))
        assert g.edges == {(1, 3), (2, 3)}
        assert all(type(v) is int for e in g.edges for v in e)
        doc = configuration_document(construct_configuration(g, 0.2), g, 0.2)
        assert json.loads(json.dumps(doc))["graph"] == [[1, 3], [2, 3]]

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
        assert degrees(g) == [1, 1, 0, 0, 0]

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of vertex range"):
            Graph(2, frozenset({(1, 3)}))

    def test_non_canonical_edge_normalised(self):
        g = Graph(3, frozenset({(3, 1)}))
        assert g.edges == {(1, 3)} and type(g.edges) is frozenset

    def test_star_neighbours_read_from_the_adjacency_matrix(self):
        g = Graph.from_edges([(1, 2), (1, 3), (1, 4)])
        a = adjacency_matrix(g)
        assert [int(v) for v in np.flatnonzero(a[0]) + 1] == [2, 3, 4]
        assert [int(v) for v in np.flatnonzero(a[1]) + 1] == [1]
        assert degrees(g) == [3, 1, 1, 1]


def outcome(build):
    """The edge set of the graph ``build()`` returns, or the text of the
    ``ValueError`` it raises (``GraphError`` is one)."""
    try:
        return build().edges
    except ValueError as exc:
        return str(exc)


@st.composite
def pair_lists(draw):
    """``n`` and a list of vertex pairs: distinct edges of K_n, each in a
    random order, with now and then a repeated pair, a loop or an endpoint
    outside ``1..n`` put in at a random place, and some labels as numpy
    integers."""
    n = draw(st.integers(min_value=1, max_value=6))
    edges = list(itertools.combinations(range(1, n + 1), 2))
    pairs = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    pairs = [(j, i) if draw(st.booleans()) else (i, j) for i, j in pairs]
    for kind in draw(st.lists(st.sampled_from(["repeat", "loop", "outside"]), max_size=2)):
        v = draw(st.integers(min_value=1, max_value=n))
        if kind == "repeat" and pairs:
            i, j = draw(st.sampled_from(pairs))
            extra = draw(st.sampled_from([(i, j), (j, i)]))
        elif kind == "loop":
            extra = (v, v)
        else:
            extra = draw(st.permutations([v, draw(st.sampled_from([0, n + 1]))]))
        pairs.insert(draw(st.integers(min_value=0, max_value=len(pairs))), tuple(extra))
    label = st.sampled_from([int, int, np.int64, np.int32])
    return n, [(draw(label)(i), draw(label)(j)) for i, j in pairs]


def first_fault(n, pairs):
    """The messages the gate may raise on ``pairs``: the first loop or
    repeat in list order, else every edge outside ``1..n`` (a frozenset
    names whichever it meets first); none for a valid list."""
    seen = set()
    for p in pairs:
        i, j = sorted(map(int, p))
        if i == j:
            return {f"loop edge {i}-{j}"}
        if (i, j) in seen:
            return {f"duplicate edge {i}-{j}"}
        seen.add((i, j))
    return {f"edge {i}-{j} out of vertex range 1..{n}" for i, j in seen if i < 1 or j > n}


class TestOneEdgeGate:
    """``Graph(n, edges)`` canonicalises and checks every edge set;
    ``from_edges`` and the document reader hand their pairs to it."""

    def test_a_repeated_pair_is_refused(self):
        with pytest.raises(GraphError, match="^duplicate edge 1-2$"):
            Graph(3, [(1, 2), (1, 2), (2, 3)])

    def test_a_list_is_stored_as_a_hashable_frozenset(self):
        g = Graph(3, [(1, 2), (2, 3)])
        twin = Graph(3, frozenset({(1, 2), (2, 3)}))
        assert type(g.edges) is frozenset
        assert g == twin and hash(g) == hash(twin) and len({g, twin}) == 1
        assert is_tree(g) and g.num_edges == 2

    def test_a_generator_is_read_in_either_order(self):
        g = Graph(3, ((j, i) for i, j in [(1, 2), (2, 3)]))
        assert g.edges == {(1, 2), (2, 3)} and type(g.edges) is frozenset

    @pytest.mark.parametrize(
        "edges", [frozenset({(2, 1)}), frozenset({(np.int64(1), 2)}), {(1, 2)},
                  frozenset({(1, 2)})],
        ids=["reversed", "numpy-label", "set", "canonical"],
    )
    def test_any_other_edge_set_is_stored_canonical(self, edges):
        g = Graph(2, edges)
        assert g.edges == {(1, 2)} and type(g.edges) is frozenset and g.edges is not edges
        assert all(type(v) is int for e in g.edges for v in e)

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([1, 2], "edge 1 is not a pair of vertex labels"),
            ([(1, 2, 3)], "edge (1, 2, 3) is not a pair of vertex labels"),
            ([(1,)], "edge (1,) is not a pair of vertex labels"),
            ([(1, 2), None, (2, 3, 1)], "edge None is not a pair of vertex labels"),
            (None, "edges must be an iterable of vertex pairs, got None"),
            (3, "edges must be an iterable of vertex pairs, got 3"),
        ],
        ids=["bare-labels", "triple", "single", "first-bad-item", "none", "int"],
    )
    def test_a_malformed_pair_is_refused(self, edges, message):
        builds = [lambda: Graph(3, edges), lambda: Graph.from_edges(edges)]
        if isinstance(edges, list):  # the same items as the keys of a weighting
            builds.append(lambda: TauWeighting(per_edge=[(p, 0.2) for p in edges]))
        for build in builds:
            with pytest.raises(GraphError) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "items", [{1, 2}, {(1, 2, 3)}, {(1,)}, {"12"}, {(1, 2), (1, 2, 3)}],
        ids=["bare-labels", "triple", "single", "string", "pair-and-triple"],
    )
    def test_a_frozenset_of_malformed_items_meets_the_same_gate(self, items):
        """A frozenset takes the walk of a list: its items raise what they
        raise in a list, in the frozenset's order."""
        messages = []
        for edges in (frozenset(items), list(frozenset(items))):
            with pytest.raises(GraphError) as info:
                Graph(3, edges)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @given(pair_lists())
    @settings(max_examples=300, deadline=None)
    def test_every_graph_source_applies_the_same_gate(self, case):
        n, pairs = case
        want = outcome(lambda: Graph(n, pairs))
        faults = first_fault(n, pairs)
        if faults:
            assert want in faults
        else:
            assert want == {tuple(sorted(map(int, p))) for p in pairs}
            assert type(want) is frozenset and all(type(v) is int for e in want for v in e)
        assert outcome(lambda: Graph(n, iter(pairs))) == want
        assert outcome(lambda: Graph.from_edges(pairs, n=n)) == want
        doc = {"ambient_dim": 1, "vectors": [[1.0]] * n, "tau": 0.5,
               "graph": [[int(i), int(j)] for i, j in pairs]}
        assert outcome(lambda: load_configuration(doc)[1]) == want
        # The edge-list reader names the line of the first pair it refuses
        # (the header is line 1): a label below 1 at once, a loop or a
        # repeat with Graph's message, a label above n after the last line.
        text = f"n {n}\n" + "".join(f"{i} {j}\n" for i, j in pairs)
        seen = set()
        for k, p in enumerate(pairs, start=2):
            i, j = sorted(map(int, p))
            if i < 1:
                expected = f"line {k}: vertex labels start at 1"
                break
            if i == j or (i, j) in seen:
                expected = f"line {k}: {want}"
                break
            seen.add((i, j))
        else:
            top = max((j for _, j in seen), default=0)
            expected = (want if top <= n
                        else f"edge endpoint {top} exceeds declared vertex count {n}")
        assert outcome(lambda: parse_edge_list(text)) == expected
        # The same pairs as the keys of a weighting: no vertex range, and a
        # repeat is an edge weighted twice.
        try:
            keys = set(TauWeighting(per_edge=[(p, 0.2) for p in pairs]).per_edge)
        except ValueError as exc:
            keys = str(exc)
        if isinstance(want, str) and want.startswith("loop"):
            assert keys == want
        elif isinstance(want, str) and want.startswith("duplicate"):
            assert keys == f"{want.removeprefix('duplicate ')} weighted twice"
        else:
            assert keys == {tuple(sorted(map(int, p))) for p in pairs}


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

    @pytest.mark.parametrize("line", ["1 1_0", "\uff11 \uff12", "+1 2", "1 +2", "1 \u0663"])
    def test_labels_are_ascii_decimal(self, line):
        """``int`` would read these as the edges 1-10, 1-2, 1-2, 1-2 and
        1-3."""
        with pytest.raises(GraphError, match="^line 2: vertex labels must be integers$"):
            parse_edge_list(f"# c\n{line}\n")

    @pytest.mark.parametrize("count", ["1_0", "+3", "\uff13"])
    def test_header_count_is_ascii_decimal(self, count):
        with pytest.raises(GraphError, match=r"^line 1: header count .* is not an integer$"):
            parse_edge_list(f"n {count}\n1 2\n")

    def test_a_huge_header_count_is_cut_short_in_the_message(self):
        # 5,000 digits are more than int() reads; the message names the
        # first 20 and the length instead of echoing them all.
        count = "9" * 5000
        message = r"^line 1: header count '9{20}'\.\.\. \(5000 characters\) is not an integer$"
        with pytest.raises(GraphError, match=message):
            parse_edge_list(f"n {count}\n1 2\n")

    def test_negative_labels_keep_their_message(self):
        with pytest.raises(GraphError, match="line 1: vertex labels start at 1"):
            parse_edge_list("-1 2\n")
        with pytest.raises(GraphError, match="line 1: vertex count must be at least 1"):
            parse_edge_list("n -3\n")


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

    @pytest.mark.parametrize("spec", ["A\uff15", "K1,\u0663", "C\uff16", "D~\u0664"])
    def test_spec_sizes_are_ascii_decimal(self, spec):
        """``\\d`` would read these as A5, K1,3, C6 and D~4."""
        with pytest.raises(GraphError, match="unrecognized graph spec"):
            parse_named_spec(spec)

    def test_a_size_of_too_many_digits_is_a_graph_error(self):
        # int() refuses more than sys.get_int_max_str_digits() digits (4,300
        # by default) with a ValueError whose advice is meant for programmers.
        spec = "A" + "9" * 5000
        message = (r"^graph spec 'A9{19}'\.\.\. \(5001 characters\) "
                   r"has a size of 5000 digits, too many to read$")
        with pytest.raises(GraphError, match=message):
            parse_named_spec(spec)

    def test_an_unrecognized_long_spec_is_cut_short_in_the_message(self):
        with pytest.raises(GraphError, match=r"^unrecognized graph spec 'B9{19}'\.\.\. "
                                             r"\(5001 characters\) \(expected "):
            parse_named_spec("B" + "9" * 5000)

    def test_a_huge_but_readable_size_is_parsed(self):
        fam = parse_named_spec("A" + "9" * 4000)
        assert fam.size == 10**4000 - 1
        with pytest.raises(GraphError, match="^graph has <13288-bit int> vertices, above the limit"):
            check_vertex_count(fam.vertex_count)

    @pytest.mark.parametrize("family,size", [("A", 5.0), ("D", 4.5), ("star", "3"),
                                             ("cycle", True), ("A~", [3])])
    def test_size_must_be_an_integer(self, family, size):
        with pytest.raises(GraphError, match=f"family {re.escape(family)} size must be an integer"):
            NamedFamily(family, size)

    def test_numpy_size_is_stored_as_a_python_int(self):
        fam = NamedFamily("D", np.int64(5))
        assert type(fam.size) is int and fam.size == 5
        assert generate_named(fam).edges == generate_named(NamedFamily("D", 5)).edges

    def test_fixed_families_take_no_size(self):
        with pytest.raises(GraphError, match="no size"):
            NamedFamily("E7", 7)

    def test_path_layout(self):
        g = generate_named(NamedFamily("A", 4))
        assert g.edges == {(1, 2), (2, 3), (3, 4)}
        assert generate_named(NamedFamily("A", 1)).n == 1

    def test_d4_is_the_three_leaf_star(self):
        g = generate_named(NamedFamily("D", 4))
        assert sorted(degrees(g)) == [1, 1, 1, 3]

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
        assert sorted(degrees(g)) == [1, 1, 1, 1, 4]

    def test_tilde_families_have_one_more_vertex_than_their_subscript(self):
        for family, size in [("A~", 5), ("D~", 7)]:
            assert generate_named(NamedFamily(family, size)).n == size + 1

    def test_star_layout(self):
        g = generate_named(NamedFamily("star", 4))
        assert g.n == 5
        assert degrees(g) == [4, 1, 1, 1, 1]


# A long list, a large dict and an int past Python's 4,300-digit repr limit.
LARGE_VALUES = [
    pytest.param(list(range(10 ** 5)), id="list"),
    pytest.param({k: k for k in range(20_000)}, id="dict"),
    pytest.param(10 ** 5000, id="int"),
]

# Every refusal that quotes a value the caller gave.
ECHO_SITES = {
    "existence": lambda x: existence(Graph(2, [(1, 2)]), x),
    "per-edge": lambda x: TauWeighting(per_edge=[x]),
    "graph-pair": lambda x: Graph(3, [x]),
    "ambient-dim": lambda x: load_configuration(
        {"ambient_dim": x, "vectors": [[1.0]], "tau": 0.5, "graph": []}),
    "pruefer": lambda x: tree_from_pruefer(x, []),
}


class TestBoundedEchoes:
    @pytest.mark.parametrize("value", LARGE_VALUES)
    def test_shown_is_short(self, value):
        text = _shown(value)
        assert len(text) <= _SHOWN_MAX and "\n" not in text

    def test_a_long_int_is_named_by_its_size(self):
        """Python refuses the repr of an int past 4,300 digits, also inside
        a container."""
        assert _shown(10 ** 5000) == "<16610-bit int>"
        assert _shown([1, 10 ** 5000]) == "[1, <16610-bit int>]"

    def test_short_values_are_their_repr(self):
        for value in (5, 1.5, "x", (1.0, 2), [1, 2, 3], None, True, 10 ** 20):
            assert _shown(value) == repr(value)

    @pytest.mark.parametrize("value", LARGE_VALUES)
    @pytest.mark.parametrize("site", ECHO_SITES)
    def test_refusal_quotes_a_bounded_value(self, site, value):
        with pytest.raises(ValueError) as info:
            ECHO_SITES[site](value)
        message = str(info.value)
        assert len(message) <= 120 and "\n" not in message, message[:200]
        # Python's own refusal to convert a long int names no input.
        assert "set_int_max_str_digits" not in message, message

    def test_a_huge_vertex_count_is_not_spelled_out(self):
        with pytest.raises(GraphError, match="^Pruefer sequence for n=<1329-bit int> must have "
                                             "length <1329-bit int>$"):
            tree_from_pruefer(10 ** 400, [])

    def test_edge_list_lines_are_quoted_briefly(self):
        with pytest.raises(GraphError, match=r"^line 1: expected 'i j', got '1 2 3 3 3 3 3 3 3 3 '"
                                             r"\.\.\. \(200003 characters\)$"):
            parse_edge_list("1 2 " + "3 " * 10 ** 5)
        big = "9" * 4000
        with pytest.raises(GraphError, match="^line 1: loop edge <13288-bit int>-<13288-bit int>$"):
            parse_edge_list(f"{big} {big}")
        with pytest.raises(GraphError, match="^edge endpoint <13288-bit int> exceeds declared "
                                             "vertex count 2$"):
            parse_edge_list(f"n 2\n1 {big}")

    def test_huge_labels_are_not_spelled_out(self):
        big = 10 ** 400
        with pytest.raises(GraphError, match="^loop edge <1329-bit int>-<1329-bit int>$"):
            Graph(3, [(big, big)])
        with pytest.raises(GraphError, match="^edge 1-<1329-bit int> out of vertex range 1..3$"):
            Graph(3, [(1, big)])


class TestPredicates:
    def test_path_is_tree(self):
        g = generate_named(NamedFamily("A", 5))
        assert is_connected(g) and is_tree(g)

    def test_cycle_is_connected_but_not_a_tree(self):
        g = generate_named(NamedFamily("cycle", 5))
        assert is_connected(g) and not is_tree(g)

    def test_disconnected_graph(self):
        g = Graph.from_edges([(1, 2), (3, 4)])
        assert not is_connected(g)
        assert not is_tree(g)  # right edge count needs connectivity too

    def test_single_vertex_is_a_tree(self):
        assert is_tree(Graph(1, frozenset()))

    def test_components_ordered_by_least_member(self):
        g = Graph.from_edges([(2, 5), (3, 4)], n=6)
        assert component_vertex_sets(g) == [(1,), (2, 5), (3, 4), (6,)]


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
    def test_structural_queries_build_only_the_component_roots(self, query, g):
        # A structural query reads at most the union-find roots: it neither
        # lays out the edge index nor solves the spectrum. is_tree reads
        # nothing when the edge count already rules a tree out.
        g = Graph(g.n, g.edges)
        query(g)
        assert set(g.__dict__) <= {"n", "edges", "_component_roots"}
        want = _bfs_component_sets(g)
        assert component_vertex_sets(g) == want
        assert is_connected(g) == (len(want) == 1)


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
        assert [int(s) for s in a.sum(axis=0)] == degrees(g)


class TestEdgeIndex:
    def test_aligned_read_only_and_kept(self):
        g = Graph.from_edges([(4, 2), (1, 2), (3, 4), (5, 1)], n=6)
        edges, i, j = index = g._edge_index
        assert sorted(edges) == sorted(g.edges)
        assert list(zip(i + 1, j + 1)) == edges
        assert not i.flags.writeable and not j.flags.writeable
        adjacency_matrix(g)
        assert g._edge_index is index

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

    @pytest.mark.parametrize("n,seq,bad", [
        (4, [2.0, 3.0], "2.0"),
        (4, ["2", "3"], "'2'"),
        (4, [2, True], "True"),
        (4.0, [2, 3], "4.0"),
        (True, [], "True"),
    ])
    def test_pruefer_refuses_non_integers(self, n, seq, bad):
        """``n`` and every entry must be a Python or numpy integer, not
        ``bool``, as for ``Graph(n, edges)``; the error names the value."""
        with pytest.raises(GraphError, match=f"must be an integer, got {re.escape(bad)}$"):
            tree_from_pruefer(n, seq)

    def test_pruefer_takes_numpy_integers(self):
        g = tree_from_pruefer(np.int64(4), np.array([2, 3], dtype=np.int32))
        assert g == tree_from_pruefer(4, (2, 3)) and type(g.n) is int

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
    assert sets == _bfs_component_sets(g)
