import argparse
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import angleset.cli
from angleset import generate_named, gram_matrix, parse_named_spec
from angleset.cli import MAX_STEPS, build_parser, main
from angleset.configurations import VERIFY_TOL
from angleset.graphs import MAX_VERTICES

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    """Exit code, stdout and stderr of one in-process ``main`` call, with
    argparse's exits taken as codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def structure_calls(name_calls):
    """Calls of ``classify_structure`` and ``is_tree``."""
    return name_calls("classify_structure", "is_tree")


def _closed_form_value(form: str) -> float:
    if form == "1/4":
        return 0.25
    h = int(re.fullmatch(r"1/\(4cos\^2\(pi/(\d+)\)\)", form).group(1))
    return 1.0 / (4.0 * math.cos(math.pi / h) ** 2)


CLOSED_FORM_SPECS = (
    [f"A{n}" for n in range(2, 31)] + [f"D{n}" for n in range(4, 31)] + ["E6", "E7", "E8"]
    + [f"D~{n}" for n in range(4, 31)] + ["E~6", "E~7", "E~8"]
    + [f"C{n}" for n in range(3, 31)] + [f"K1,{m}" for m in range(3, 9)]
)


class TestSpectrum:
    def test_text_single_edge(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph", "A2")
        assert code == 0
        assert out.splitlines() == [
            "eigenvalues: 1, -1",
            "index: 1",
            "min_eigenvalue: -1",
        ]

    def test_text_e6_index(self, capsys):
        _, out, _ = run(capsys, "spectrum", "--graph", "E6")
        assert "index: 1.931851653" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--graph", "C4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["eigenvalues"]) == 4
        assert doc["index"] == pytest.approx(2.0, abs=1e-12)
        assert doc["min_eigenvalue"] == pytest.approx(-2.0, abs=1e-12)
        assert 0 <= doc["residual_bound"] < 1e-10

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a 3-path\n1 2\n2 3\n")
        code, out, _ = run(capsys, "spectrum", "--file", str(p))
        assert code == 0
        assert "index: 1.414213562" in out


class TestSigma:
    def test_e6_text_block(self, capsys):
        code, out, _ = run(capsys, "sigma", "--graph", "E6")
        assert code == 0
        assert out.splitlines() == [
            "sigma_upper: 0.2679491924",
            "closed_form: 1/(4cos^2(pi/12))",
            "interval: (0, 0.2679491924]",
            "trichotomy: AboveQuarter",
        ]

    def test_extended_tree(self, capsys):
        _, out, _ = run(capsys, "sigma", "--graph", "D~4")
        assert "sigma_upper: 0.25" in out
        assert "closed_form: 1/4" in out
        assert "trichotomy: EqualQuarter" in out

    def test_tree_interval_and_trichotomy_share_one_eigensolve(self, capsys, eig_calls):
        code, _, _ = run(capsys, "sigma", "--graph", "E7")
        assert code == 0
        assert eig_calls == [7]

    def test_cycle_has_no_trichotomy_line(self, capsys):
        code, out, _ = run(capsys, "sigma", "--graph", "C6")
        assert code == 0
        assert out.splitlines() == [
            "sigma_upper: 0.3333333333",
            "closed_form: 1/(4cos^2(pi/6))",
            "interval: (0, 0.3333333333]",
        ]

    def test_unrecognized_tree_has_no_closed_form(self, capsys):
        code, out, _ = run(capsys, "sigma", "--graph", "K1,5", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "closed_form" not in doc
        assert doc["sigma_upper"] == pytest.approx(0.2, abs=1e-12)
        assert doc["trichotomy"] == "BelowQuarter"

    def test_json_matches_text(self, capsys):
        _, text, _ = run(capsys, "sigma", "--graph", "A5")
        _, raw, _ = run(capsys, "sigma", "--graph", "A5", "--format", "json")
        doc = json.loads(raw)
        assert f"sigma_upper: {doc['sigma_upper']:.10g}" in text
        assert doc["closed_form"] == "1/(4cos^2(pi/6))"

    @pytest.mark.parametrize("spec", ["E8", "K1,5"])
    def test_one_structural_classification(self, capsys, structure_calls, spec):
        code, _, _ = run(capsys, "sigma", "--graph", spec)
        assert code == 0
        assert structure_calls["classify_structure"] == 1
        assert structure_calls["is_tree"] <= 1

    def test_closed_form_evaluates_to_sigma_upper(self, capsys):
        for spec in CLOSED_FORM_SPECS:
            code, out, _ = run(capsys, "sigma", "--graph", spec, "--format", "json")
            assert code == 0
            doc = json.loads(out)
            if spec in ("K1,5", "K1,6", "K1,7", "K1,8"):
                assert "closed_form" not in doc, spec
            else:
                value = _closed_form_value(doc["closed_form"])
                assert abs(value - doc["sigma_upper"]) <= 1e-12, spec

    def test_out_of_scope_shape(self, capsys, tmp_path):
        p = tmp_path / "chord.txt"
        p.write_text("1 2\n2 3\n3 4\n4 1\n1 3\n")
        code, out, err = run(capsys, "sigma", "--file", str(p))
        assert code == 1 and out == ""
        assert err.startswith("error: no formula in scope")


class TestExists:
    def test_boundary_of_the_three_leaf_star(self, capsys):
        code, out, _ = run(capsys, "exists", "--graph", "D4", "--tau", "0.3333333333333333")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exists: true"
        assert lines[2] == "rank: 3"

    def test_past_the_boundary(self, capsys):
        code, out, _ = run(capsys, "exists", "--graph", "D4", "--tau", "0.34")
        assert code == 0  # a negative answer is not an error
        assert out.splitlines()[0] == "exists: false"

    def test_json_types(self, capsys):
        _, out, _ = run(capsys, "exists", "--graph", "A4", "--tau", "0.2", "--format", "json")
        doc = json.loads(out)
        assert doc["exists"] is True
        assert isinstance(doc["rank"], int)
        assert isinstance(doc["min_eigenvalue"], float)

    def test_tau_out_of_range(self, capsys):
        code, out, err = run(capsys, "exists", "--graph", "A3", "--tau", "1.5")
        assert code == 1
        assert "error:" in err and "(0, 1]" in err

    def test_tau_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exists", "--graph", "A3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("spec,lines", [
        ("E8", ["exists: true", "min_eigenvalue: 0.1104725747", "rank: 8"]),
        ("A40", ["exists: true", "min_eigenvalue: 0.1081972362", "rank: 40"]),
    ], ids=["E8", "A40"])
    def test_a_definite_query_runs_no_jacobi(self, capsys, eig_calls, spec, lines):
        """The certificate decides tau = 0.2 on both, and the least eigenvalue
        comes from eigvalsh on the Gram matrix: the text lines are those the
        Jacobi route printed, and the JSON value is eigvalsh's."""
        code, out, _ = run(capsys, "exists", "--graph", spec, "--tau", "0.2")
        assert code == 0 and out.splitlines() == lines
        _, out, _ = run(capsys, "exists", "--graph", spec, "--tau", "0.2", "--format", "json")
        assert eig_calls == []
        g = generate_named(parse_named_spec(spec))
        assert json.loads(out)["min_eigenvalue"] == np.linalg.eigvalsh(gram_matrix(g, 0.2))[0]

    def test_a_query_at_the_endpoint_solves_jacobi_once(self, capsys, eig_calls):
        """At A12's endpoint the Gram matrix is singular, the certificate
        fails, and the adjacency spectrum is solved once."""
        tau = 1.0 / (4.0 * math.cos(math.pi / 13) ** 2)
        code, out, _ = run(capsys, "exists", "--graph", "A12", "--tau", repr(tau))
        assert code == 0 and out.splitlines()[::2] == ["exists: true", "rank: 11"]
        assert eig_calls == [12]


class TestClassify:
    def test_extended_family(self, capsys):
        code, out, _ = run(capsys, "classify", "--graph", "E~8")
        assert code == 0
        assert out.splitlines() == [
            "components: E~8",
            "index: 2",
            "index_class: critical",
        ]

    def test_disconnected_file(self, capsys, tmp_path):
        p = tmp_path / "two.txt"
        p.write_text("n 5\n1 2\n2 3\n4 5\n")
        _, out, _ = run(capsys, "classify", "--file", str(p), "--format", "json")
        doc = json.loads(out)
        assert [c["label"] for c in doc["components"]] == ["A3", "A2"]
        assert doc["components"][0]["vertices"] == [1, 2, 3]
        assert doc["index_class"] == "subcritical"

    def test_supercritical(self, capsys, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
        _, out, _ = run(capsys, "classify", "--file", str(p))
        assert "components: supercritical" in out
        assert "index: 3" in out
        assert "index_class: supercritical" in out


class TestConstructAndVerify:
    def test_round_trip_through_files(self, capsys, tmp_path):
        out_path = tmp_path / "config.json"
        code, out, _ = run(
            capsys, "construct", "--graph", "D4", "--tau", "0.25", "--out", str(out_path)
        )
        assert code == 0
        assert out.startswith(f"wrote {out_path} (ambient_dim 4, verification passed)")
        doc = json.loads(out_path.read_text())
        assert doc["ambient_dim"] == 4
        assert doc["report"]["passed"] is True
        assert doc["tau"] == 0.25
        assert doc["graph"] == [[1, 3], [2, 3], [3, 4]]

        code, out, _ = run(capsys, "verify", "--in", str(out_path))
        assert code == 0
        assert "passed: true" in out.splitlines()

    def test_construct_to_stdout(self, capsys):
        code, out, _ = run(capsys, "construct", "--graph", "A3", "--tau", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert doc["ambient_dim"] == 2  # boundary point: one dimension drops
        assert len(doc["vectors"]) == 3

    def test_construct_writes_one_compact_line(self, capsys, tmp_path):
        """The document is ``json.dumps``'s default rendering, with no indent,
        whether printed or written."""
        path = tmp_path / "config.json"
        _, printed, _ = run(capsys, "construct", "--graph", "E8", "--tau", "0.2")
        run(capsys, "construct", "--graph", "E8", "--tau", "0.2", "--out", str(path))
        text = path.read_text()
        assert text == printed and text.count("\n") == 1
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_construct_infeasible(self, capsys):
        code, _, err = run(capsys, "construct", "--graph", "A3", "--tau", "0.9")
        assert code == 1
        assert "no configuration exists" in err

    def test_verify_flags_a_doctored_file(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        assert run(capsys, "construct", "--graph", "A4", "--tau", "0.3",
                   "--out", str(path))[0] == 0
        doc = json.loads(path.read_text())
        doc["vectors"][0][0] *= 1.05
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0
        assert "passed: false" in out.splitlines()

    def test_verify_json_format(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        run(capsys, "construct", "--graph", "A2", "--tau", "1.0", "--out", str(path))
        code, out, _ = run(capsys, "verify", "--in", str(path), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True and doc["tol"] == 1e-8

    def test_verify_rejects_corrupt_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--in", str(path))
        assert code == 1 and err.startswith("error:")

    def test_verify_rejects_an_oversized_document(self, capsys, tmp_path):
        """The vector count is checked before any row is read: rows that are
        not lists would otherwise be reported as unreadable vectors."""
        n = MAX_VERTICES + 1
        path = tmp_path / "big.json"
        for row in ([1.0], "x"):
            path.write_text(json.dumps(
                {"ambient_dim": 1, "vectors": [row] * n, "tau": 0.5, "graph": []}
            ))
            code, out, err = run(capsys, "verify", "--in", str(path))
            assert code == 1 and out == ""
            assert err.startswith(f"error: graph has {n} vertices")

    @pytest.mark.parametrize("field,value", [("graph", 5), ("tau", [5])])
    def test_verify_rejects_malformed_fields(self, capsys, tmp_path, field, value):
        doc = {"ambient_dim": 1, "vectors": [[1.0], [0.0]], "tau": 0.5, "graph": [[1, 2]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, field: value}))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "vectors,ambient,dims", [([1.0, 0.0, 0.0], 3, 1), (1.0, 1, 0)], ids=["flat-row", "number"]
    )
    def test_verify_rejects_vectors_that_are_not_rows(self, capsys, tmp_path, vectors, ambient,
                                                     dims):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(
            {"ambient_dim": ambient, "vectors": vectors, "tau": 0.5, "graph": []}
        ))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: vectors must be a 2-D array of rows, got {dims}-D\n"

    @pytest.mark.parametrize(
        "vectors,kind",
        [([["1.0"], ["1.0"]], "str"), ([["1.0", "0.0"], [1.0, 0.0]], "str"),
         ([[1.0, "0.0"], [1.0, 0.0]], "str"), ([[True], [True]], "bool"),
         ([[True, False], [True, False]], "bool"), ([[1.0, 0.0], [True, 0.0]], "bool")],
        ids=["string-rows", "all-string-row", "one-string", "booleans", "all-boolean-rows",
             "one-true"],
    )
    def test_verify_rejects_non_numeric_entries(self, capsys, tmp_path, vectors, kind):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(
            {"ambient_dim": len(vectors[0]), "vectors": vectors, "tau": 1.0, "graph": [[1, 2]]}
        ))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: vectors must be real numbers, got {kind} entries\n"

    @pytest.mark.parametrize(
        "vectors,message",
        [([[10 ** 400], [1.0]], "vectors must be finite, got an integer past the float range"),
         ([[1.0], [1.0, 0.0]], "vectors must be a 2-D array of rows of equal length")],
        ids=["huge-integer", "ragged"],
    )
    def test_verify_rejects_vectors_no_float_array_holds(self, capsys, tmp_path, vectors,
                                                          message):
        path = tmp_path / "unfit.json"
        path.write_text(json.dumps(
            {"ambient_dim": 1, "vectors": vectors, "tau": 1.0, "graph": [[1, 2]]}
        ))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_rejects_non_finite_entries(self, capsys, tmp_path, entry, fmt):
        """Python's json reads NaN, Infinity and 1e400 (which overflows to
        inf) as floats; no residual of such vectors means anything."""
        path = tmp_path / "non-finite.json"
        path.write_text('{"ambient_dim": 2, "vectors": [[1.0, 0.0], [%s, 0.5]], '
                        '"tau": 0.25, "graph": [[1, 2]]}' % entry)
        code, out, err = run(capsys, "verify", "--in", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert err == "error: vectors must be finite, got a NaN or infinite entry\n"

    @pytest.mark.parametrize("entry", ["1e308", "1e160"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_verify_refuses_products_that_overflow(self, capsys, tmp_path, entry, fmt):
        """Finite entries pass the reader, but their products overflow: no
        report with ``Infinity`` in it, and no numpy warning."""
        path = tmp_path / "huge.json"
        path.write_text('{"ambient_dim": 2, "vectors": [[%s, 0.0], [0.0, 1.0]], '
                        '"tau": 0.25, "graph": [[1, 2]]}' % entry)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "verify", "--in", str(path), "--format", fmt)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: cannot verify: overflow encountered in \w+\n", err)

    @pytest.mark.parametrize(
        "doc",
        [
            {"ambient_dim": 3.9, "vectors": [[1.0, 0.0, 0.0]], "tau": 0.5, "graph": []},
            {"ambient_dim": "3", "vectors": [[1.0, 0.0, 0.0]], "tau": 0.5, "graph": []},
            {"ambient_dim": True, "vectors": [[1.0]], "tau": 0.5, "graph": []},
            {"ambient_dim": None, "vectors": [[1.0]], "tau": 0.5, "graph": []},
            {"ambient_dim": [3], "vectors": [[1.0, 0.0, 0.0]], "tau": 0.5, "graph": []},
            [{"ambient_dim": 1, "vectors": [[1.0]], "tau": 0.5, "graph": []}],
        ],
        ids=["float", "string", "true", "null", "list", "list-document"],
    )
    def test_verify_rejects_a_malformed_document(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert "ambient_dim must be an integer" in err or "must be a JSON object" in err

    def test_verify_refuses_a_large_document_in_one_short_line(self, capsys, tmp_path):
        """A 1.6 MB document whose per-edge tau holds strings: the refusal
        quotes the first bad value, cut short, not the whole list."""
        n = MAX_VERTICES
        path = tmp_path / "strings.json"
        path.write_text(json.dumps({
            "ambient_dim": 1, "vectors": [[1.0]] * n, "graph": [[v, v + 1] for v in range(1, n)],
            "tau": [[v, v + 1, "0.2" * 260] for v in range(1, n)],
        }))
        assert path.stat().st_size > 1_600_000
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: tau on edge 1-2 must be a real number, "
                       "got '0.20.20.20.20.20.20.'... (780 characters)\n")

    @pytest.mark.parametrize("second", [[1, 2, 0.7], [2, 1, 0.7]], ids=["same", "reversed"])
    def test_verify_rejects_an_edge_weighted_twice(self, capsys, tmp_path, second):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"ambient_dim": 1, "vectors": [[1.0], [1.0]],
                                    "tau": [[1, 2, 0.5], second], "graph": [[1, 2]]}))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert (code, out, err) == (1, "", "error: edge 1-2 weighted twice\n")

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
        assert code == 1 and err.startswith("error:")


class TestSweep:
    def test_csv_shape_and_boundary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "D4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "tau,min_eigenvalue,exists,rank"
        assert len(lines) == 101  # default 100 steps
        flags = [row.split(",")[2] for row in lines[1:]]
        assert flags[0] == "true" and flags[-1] == "false"
        assert flags == sorted(flags, reverse=True)  # true...true,false...false
        flip = flags.index("false")
        taus = [float(row.split(",")[0]) for row in lines[1:]]
        assert taus[flip - 1] <= 1 / 3 < taus[flip]

    def test_single_step(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "A2", "--steps", "1",
                           "--tau-min", "0.5", "--tau-max", "0.5")
        assert out.splitlines() == ["tau,min_eigenvalue,exists,rank", "0.5,0.2928932188,true,2"]

    def test_endpoints_inclusive(self, capsys):
        _, out, _ = run(capsys, "sweep", "--graph", "A2", "--steps", "5",
                        "--tau-min", "0.2", "--tau-max", "1.0")
        taus = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert taus == ["0.2", "0.4", "0.6", "0.8", "1"]

    def test_json_rows(self, capsys):
        _, out, _ = run(capsys, "sweep", "--graph", "A3", "--steps", "7",
                        "--format", "json")
        rows = json.loads(out)["rows"]
        assert len(rows) == 7
        assert rows[0]["exists"] is True and rows[-1]["exists"] is False

    def test_one_eigensolve_for_every_row(self, capsys, eig_calls):
        """Both sweeps cross their endpoint; one adjacency solve answers the
        rows on either side, the definite ones included."""
        for spec, steps in (("E8", 40), ("E7", 100)):
            code, out, _ = run(capsys, "sweep", "--graph", spec, "--steps", str(steps))
            assert code == 0 and len(out.splitlines()) == steps + 1
            assert {row.split(",")[2] for row in out.splitlines()[1:]} == {"true", "false"}
        assert eig_calls == [8, 7]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tau-min", "0"],
            ["--tau-min", "0.9", "--tau-max", "0.5"],
            ["--tau-max", "1.5"],
            ["--steps", "0"],
            ["--steps", str(MAX_STEPS + 1)],
        ],
    )
    def test_domain_errors(self, capsys, flags):
        code, _, err = run(capsys, "sweep", "--graph", "A3", *flags)
        assert code == 1 and err.startswith("error:")


class TestGraphSourceHandling:
    def test_requires_exactly_one_source(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2\n")
        code, _, err = run(capsys, "spectrum")
        assert code == 1 and "exactly one graph source" in err
        code, _, err = run(capsys, "spectrum", "--graph", "A2", "--file", str(p))
        assert code == 1 and "exactly one graph source" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "spectrum", "--graph", "Q7")
        assert code == 1 and err.startswith("error:")

    def test_missing_edge_file(self, capsys):
        code, _, err = run(capsys, "spectrum", "--file", "/no/such/file.txt")
        assert code == 1 and err.startswith("error:")

    def test_malformed_edge_file_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n2 2\n")
        code, _, err = run(capsys, "spectrum", "--file", str(p))
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize("spec,n", [("A100000", 100000), ("K1,2000", 2001)])
    def test_oversized_named_graph(self, capsys, spec, n):
        code, out, err = run(capsys, "spectrum", "--graph", spec)
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph has {n} vertices, above the limit")

    @pytest.mark.parametrize("text,n", [("1 100000\n", 100000), ("n 2001\n1 2\n", 2001)])
    def test_oversized_edge_file(self, capsys, tmp_path, text, n):
        p = tmp_path / "big.txt"
        p.write_text(text)
        code, out, err = run(capsys, "exists", "--file", str(p), "--tau", "0.5")
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph has {n} vertices, above the limit")

    @pytest.mark.parametrize("source,text", [
        ("graph", "A" + "9" * 5000),  # more digits than int() reads
        ("graph", "A~" + "9" * 4000),
        ("graph", "B" + "9" * 5000),
        ("file", "n " + "9" * 5000 + "\n1 2\n"),
        ("file", "n " + "9" * 4000 + "\n1 2\n"),
    ], ids=["spec-5000", "spec-4000", "unknown-spec", "header-5000", "header-4000"])
    def test_a_huge_size_gives_one_short_error_line(self, capsys, tmp_path, source, text):
        if source == "file":
            p = tmp_path / "huge.txt"
            p.write_text(text)
            text = str(p)
        code, out, err = run(capsys, "sigma", f"--{source}", text)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
        assert "set_int_max_str_digits" not in err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["exists", "--graph", "A3", "--tau", "0.2"],
        ["classify", "--graph", "A3"],
        ["construct", "--graph", "A3", "--tau", "0.2"],
        ["verify", "--in", "config.json"],
        ["sweep", "--graph", "A3"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_takes_a_tolerance(capsys, argv):
    """The cuts are the module constants: ``--tol`` is an unknown option,
    and no help text offers one."""
    code, out, err = run(capsys, *argv, "--tol", "1e-9")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --tol 1e-9" in err
    for help_argv in (["--help"], [argv[0], "--help"]):
        code, out, _ = run(capsys, *help_argv)
        assert code == 0 and "--tol" not in out


class TestParserReuse:
    """``main`` builds its parser once per process; ``build_parser`` stays a
    factory of fresh parsers."""

    @staticmethod
    def session(tmp_path):
        config = str(tmp_path / "config.json")
        return [
            (["sigma", "--graph", "E6"], 0),
            (["exists", "--graph", "A3", "--tau", "abc"], 2),
            (["exists", "--graph", "A3"], 2),
            (["frobnicate"], 2),
            (["--help"], 0),
            (["sweep", "--help"], 0),
            (["exists", "--graph", "A3", "--tau", "1.5"], 1),
            (["spectrum", "--graph", "C6", "--format", "json"], 0),
            (["sigma", "--graph", "D~4", "--format", "json"], 0),
            (["exists", "--graph", "D4", "--tau", "0.3"], 0),
            (["classify", "--graph", "E~8"], 0),
            (["construct", "--graph", "E7", "--tau", "0.2", "--out", config], 0),
            (["verify", "--in", config, "--format", "json"], 0),
            (["sweep", "--graph", "A4", "--steps", "5"], 0),
            (["exists", "--graph", "A3", "--tau", "0.2", "--tol", "nan"], 2),
        ]

    def test_reused_parser_matches_a_fresh_one(self, capsys, tmp_path, monkeypatch):
        calls = self.session(tmp_path)
        reused = [run(capsys, *argv) for _ in range(2) for argv, _ in calls]
        assert [code for code, _, _ in reused] == [code for _, code in calls] * 2
        monkeypatch.setattr(angleset.cli, "_parser", build_parser)
        fresh = [run(capsys, *argv) for _ in range(2) for argv, _ in calls]
        assert reused == fresh

    def test_main_builds_at_most_one_parser_tree(self, capsys, monkeypatch):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser()
        tree = len(built)
        built.clear()
        for _ in range(5):
            assert run(capsys, "spectrum", "--graph", "A3")[0] == 0
            assert run(capsys, "exists", "--graph", "A3", "--tau", "x")[0] == 2
        assert len(built) <= tree

    def test_build_parser_returns_a_new_parser(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        assert angleset.cli._parser() not in (first, second)

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import angleset.cli as c; print(c._parser.cache_info().currsize)"],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


def _src_env():
    """The environment with ``src`` first on ``PYTHONPATH``, so a child
    interpreter imports this checkout without an install."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "angleset", "sigma", "--graph", "A3"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "sigma_upper: 0.5" in proc.stdout


def test_console_script_runs():
    """Run the ``[project.scripts]`` target of pyproject.toml the way an
    installed console script does, without needing an install."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    entries = dict(re.findall(r'^(\S+)\s*=\s*"([^"]+)"', scripts, re.M))
    module, func = entries["angleset"].split(":")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())",
         "classify", "--graph", "E8"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "index_class: subcritical" in proc.stdout


def readme_examples():
    """Every ``$ angleset ...`` example of the README, in order, as its
    argument list and the output shown under it."""
    text = (ROOT / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for example in re.split(r"^\$ angleset ", block, flags=re.M)[1:]:
            command, _, shown = example.partition("\n")
            examples.append((shlex.split(command), shown.rstrip("\n") + "\n"))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    """The README's examples whose output it shows in full print exactly
    that, run in order in an empty directory. ``verify`` prints the keys
    shown, passes, and keeps every residual within ``VERIFY_TOL``: the
    residuals themselves can differ in their last bits across BLAS builds.
    ``classify`` reads a file of the reader's and ``spectrum``'s output is
    elided, so neither is run."""
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, shown in readme_examples():
        if argv[0] in ("classify", "spectrum"):
            continue
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        if argv[0] == "verify":
            fields = dict(line.split(": ") for line in out.splitlines())
            assert list(fields) == [line.split(": ")[0] for line in shown.splitlines()]
            assert fields.pop("passed") == "true"
            assert all(float(value) <= VERIFY_TOL for value in fields.values())
        else:
            assert out == shown, argv
        ran.append(argv[0])
    assert ran == ["sigma", "exists", "construct", "verify", "sweep"]


def rendered(value) -> str:
    """A JSON value as the text and CSV formats show it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, list):
        return ", ".join(rendered(v) for v in value)
    if isinstance(value, dict):  # a ``classify`` component shows its label
        return value["label"]
    return str(value)


class TestOneRenderer:
    """Text, JSON and CSV are renderings of one payload per call."""

    @staticmethod
    def argv(tmp_path, command, source):
        tree = tmp_path / "tree.txt"
        tree.write_text("1 2\n2 3\n3 4\n3 5\n5 6\n5 7\n")
        graph = ["--graph", "E6"] if source == "graph" else ["--file", str(tree)]
        if command == "exists":
            return ["exists", *graph, "--tau", "0.2"]
        if command == "verify":
            config = tmp_path / "config.json"
            assert main(["construct", *graph, "--tau", "0.2", "--out", str(config)]) == 0
            return ["verify", "--in", str(config)]
        return [command, *graph]

    @pytest.mark.parametrize("source", ["graph", "file"])
    @pytest.mark.parametrize("command", ["spectrum", "sigma", "exists", "classify", "verify"])
    def test_each_text_line_renders_its_json_value(self, capsys, tmp_path, command, source):
        argv = self.argv(tmp_path, command, source)
        capsys.readouterr()
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, raw, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(raw)
        lines = text.splitlines()
        assert lines
        for line in lines:
            key, value = line.split(": ", 1)
            assert value == rendered(doc[key]), line

    @pytest.mark.parametrize("graph", [["--graph", "D4"], ["--graph", "C5"]])
    def test_sweep_csv_and_json_rows_agree(self, capsys, graph):
        argv = ["sweep", *graph, "--tau-min", "0.1", "--tau-max", "0.9", "--steps", "9"]
        _, csv_text, _ = run(capsys, *argv)
        _, raw, _ = run(capsys, *argv, "--format", "json")
        rows = json.loads(raw)["rows"]
        columns = ["tau", "min_eigenvalue", "exists", "rank"]
        assert [list(row) for row in rows] == [columns] * 9
        assert csv_text.splitlines() == [",".join(columns)] + [
            ",".join(rendered(row[c]) for c in columns) for row in rows
        ]

    @pytest.mark.parametrize(
        "argv", [["sweep", "--graph", "A3"], ["construct", "--graph", "A3", "--tau", "0.5"]],
        ids=lambda argv: argv[0],
    )
    def test_text_is_no_format_of_sweep_or_construct(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "text")
        assert code == 2 and out == ""
        assert "argument --format: invalid choice: 'text'" in err

    def test_construct_prints_json_by_default(self, capsys):
        argv = ["construct", "--graph", "A3", "--tau", "0.5"]
        assert run(capsys, *argv) == run(capsys, *argv, "--format", "json")
