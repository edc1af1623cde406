import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from angleset.cli import MAX_VERTICES, SWEEP_HEADER, main

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["exists", "--graph", "A3", "--tau", "0.1", "--tol", "nan"],
            ["classify", "--graph", "K1,5", "--tol", "inf"],
        ],
    )
    def test_non_finite_tolerance(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "finite" in err

    def test_tau_flag_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exists", "--graph", "A3"])
        assert exc.value.code == 2


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
        n = MAX_VERTICES + 1
        path = tmp_path / "big.json"
        path.write_text(json.dumps(
            {"ambient_dim": 1, "vectors": [[1.0]] * n, "tau": 0.5, "graph": []}
        ))
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: graph has {n} vertices")

    def test_verify_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
        assert code == 1 and err.startswith("error:")


class TestSweep:
    def test_csv_shape_and_boundary(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "D4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
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
        assert out.splitlines() == [SWEEP_HEADER, "0.5,0.2928932188,true,2"]

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
        code, out, _ = run(capsys, "sweep", "--graph", "E8", "--steps", "40")
        assert code == 0 and len(out.splitlines()) == 41
        assert eig_calls == [8]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--tau-min", "0"],
            ["--tau-min", "0.9", "--tau-max", "0.5"],
            ["--tau-max", "1.5"],
            ["--steps", "0"],
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

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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
