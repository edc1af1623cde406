"""The four benchmark workloads.

Each workload splits its work into three parts:

* ``__init__(seed)`` makes the inputs as plain data (edge lists, Pruefer
  sequences, tau values). It never calls angleset and is not timed.
* ``build(ag, workdir)`` turns that data into program inputs through angleset's
  own constructors and writes any input files. Together with importing
  angleset it is the set-up that ``setup_s`` times.
* ``round_ops(ag, state)`` returns one round: a fixed list of operations,
  each a ``run`` callable (timed) and a ``check`` callable (not timed). Every
  round repeats the same operations in the same order, so that each
  operation is timed many times in a run. Every round gets fresh ``Graph``
  instances, so a cache kept on a graph object can only help within one
  operation, as it would for a user asking about each graph once.

A check returns ``False`` when the output is right, ``True`` when the
operation failed in the one known way the workload keeps (see
``CyclicExistence``), and raises ``CheckError`` for any other wrong output.
Expected values come from numpy on matrices the benchmark builds itself from
the edge lists, or from the paper's closed forms; never from angleset.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

# Relative tolerance for comparing numbers that angleset computes against
# numpy or a closed form. The CLI prints 10 significant digits, so its text
# output carries up to 5e-10 relative rounding.
REL_TOL = 1e-9
# Unsigned Gram matrices are called PSD (or not) only with this much room on
# the least eigenvalue; inputs are generated to keep at least this distance.
PSD_MARGIN = 1e-6
# numpy rank: eigenvalues of the Gram matrix above this count.
RANK_TOL = 1e-8
# Frobenius tolerance for V V^T against the Gram matrix.
GRAM_TOL = 1e-8


class CheckError(AssertionError):
    """An operation returned a wrong result."""


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def expect_close(got: float, want: float, what: str, rel: float = REL_TOL) -> None:
    expect(
        abs(got - want) <= rel * max(1.0, abs(want)),
        f"{what}: got {got!r}, expected {want!r}",
    )


def adjacency_np(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for i, j in edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
    return a


def gram_np(n: int, edges, tau) -> np.ndarray:
    """Unit diagonal, sqrt(tau_ij) on edges; ``tau`` is a float or an edge dict."""
    g = np.eye(n)
    for i, j in edges:
        t = tau[(i, j)] if isinstance(tau, dict) else tau
        g[i - 1, j - 1] = g[j - 1, i - 1] = math.sqrt(t)
    return g


def index_np(n: int, edges) -> float:
    return float(np.linalg.eigvalsh(adjacency_np(n, edges))[-1])


def quarter_sigma(k: int) -> float:
    """The paper's closed form 1/(4cos^2(pi/k))."""
    c = math.cos(math.pi / k)
    return min(1.0, 1.0 / (4.0 * c * c))


def expected_trichotomy(r: float) -> str:
    if r < 2.0 - REL_TOL:
        return "AboveQuarter"
    if r > 2.0 + REL_TOL:
        return "BelowQuarter"
    return "EqualQuarter"


def expected_index_class(r: float) -> str:
    if r < 2.0 - REL_TOL:
        return "subcritical"
    if r > 2.0 + REL_TOL:
        return "supercritical"
    return "critical"


def gram_deviation(v: np.ndarray, n: int, edges, tau) -> float:
    """Frobenius distance of |V V^T| from the benchmark's unsigned Gram matrix.

    Lines carry no sign, so a configuration is right when |v_i . v_j| is
    sqrt(tau_ij) on edges and 0 off them, whatever signing realises it."""
    return float(np.linalg.norm(np.abs(v @ v.T) - gram_np(n, edges, tau)))


def check_configuration(config, n: int, edges, tau) -> None:
    """|V V^T| equals the benchmark's Gram matrix, rows are unit vectors, and
    the ambient dimension is the numpy rank of V V^T (for a tree, or any
    configuration signed like the unsigned Gram matrix, that matrix's rank)."""
    v = np.asarray(config.vectors)
    expect(v.shape == (n, config.ambient_dim), f"vectors have shape {v.shape}")
    dev = gram_deviation(v, n, edges, tau)
    expect(dev <= GRAM_TOL, f"|V V^T| deviates from the Gram matrix by {dev:.3e}")
    norms = np.linalg.norm(v, axis=1)
    expect(float(np.abs(norms - 1.0).max()) <= REL_TOL, "a vector is not a unit vector")
    rank = gram_rank(v @ v.T)
    expect(config.ambient_dim == rank, f"ambient_dim {config.ambient_dim}, numpy rank {rank}")


def gram_rank(gram: np.ndarray) -> int:
    return int((np.linalg.eigvalsh(gram) > RANK_TOL).sum())


def pruefer_from_index(n: int, idx: int) -> tuple[int, ...]:
    """The idx-th Pruefer sequence for n vertices (base-n digits)."""
    seq = []
    for _ in range(n - 2):
        idx, digit = divmod(idx, n)
        seq.append(digit + 1)
    return tuple(seq)


def random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random labeled tree: each vertex joins an earlier one, then labels
    are shuffled."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = labels[u], labels[v]
        edges.append((min(a, b), max(a, b)))
    return edges


def random_connected_edges(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """A random tree plus ``extra`` further edges: cycle rank ``extra``."""
    edges = set(random_tree_edges(rng, n))
    while len(edges) < n - 1 + extra:
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((i, j))
    return sorted(edges)


def least_gram_eig(n: int, edges, tau) -> float:
    return float(np.linalg.eigvalsh(gram_np(n, edges, tau))[0])


class Workload:
    name = ""
    # Whole rounds continue past --seconds until at least this many
    # operations ran.
    min_ops = 100
    # The traced run times this many rounds, untraced then traced, whatever
    # --seconds says, so that per-layer totals compare across versions.
    trace_rounds = 1

    def build(self, ag, workdir: Path):
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Benchmark-side expected values that need the built inputs."""

    def round_ops(self, ag, state) -> list[Op]:
        raise NotImplementedError


class TreeScan(Workload):
    """Answer trees of the 4,462-tree corpus: sigma_tree, trichotomy,
    classify_index, then existence at tau = c/r^2 with c below, at and above 1.

    The corpus has the make-up of the test suite's: every labeled tree on 2..6
    vertices plus uniform samples of 1,510 trees on 7 and 1,511 on 8 vertices,
    drawn with ``random.Random(seed + n)``. Seed 318008 gives the test corpus.
    A run answers one quarter of it, ``seed % 4``: every fourth tree of the
    corpus sorted by size, so each quarter has the same mix of sizes. Fewer
    distinct trees let each be timed more often within a run.
    """

    name = "tree-scan"
    SAMPLES = ((7, 1510), (8, 1511))
    PARTS = 4
    trace_rounds = 4

    def __init__(self, seed: int):
        seqs = [
            (n, pruefer_from_index(n, k)) for n in range(2, 7) for k in range(n ** (n - 2))
        ]
        for n, count in self.SAMPLES:
            pick = random.Random(seed + n).sample(range(n ** (n - 2)), count)
            seqs.extend((n, pruefer_from_index(n, k)) for k in pick)
        rng = random.Random(seed)
        rng.shuffle(seqs)
        seqs.sort(key=lambda item: item[0])
        seqs = seqs[seed % self.PARTS::self.PARTS]
        rng.shuffle(seqs)
        self.seqs = seqs
        self.cs = [(rng.uniform(0.3, 0.95), 1.0, rng.uniform(1.05, 2.0)) for _ in seqs]

    def build(self, ag, workdir):
        return [ag.tree_from_pruefer(n, seq) for n, seq in self.seqs]

    def prepare(self, trees):
        self.index = [index_np(g.n, g.edges) for g in trees]

    def round_ops(self, ag, trees):
        ops = []
        for g, r, cs in zip(trees, self.index, self.cs):
            r2 = r * r
            # c = 1 is the endpoint 1/r^2, which the n = 2 tree puts at tau = 1.
            taus = [(c, min(1.0, 1.0 / r2) if c == 1.0 else c / r2) for c in cs]
            taus = [(c, t) for c, t in taus if t <= 1.0]
            fresh = ag.Graph(g.n, g.edges)
            ops.append(Op(
                run=lambda g=fresh, taus=taus: self._answer(ag, g, taus),
                check=lambda out, g=fresh, r=r, taus=taus: self._check(out, g, r, taus),
            ))
        return ops

    @staticmethod
    def _answer(ag, g, taus):
        return (
            ag.sigma_tree(g),
            ag.trichotomy(g),
            ag.classify_index(g),
            [ag.existence(g, t) for _, t in taus],
        )

    @staticmethod
    def _check(out, g, r, taus) -> bool:
        sigma, position, cls, verdicts = out
        expect_close(sigma.upper, min(1.0, 1.0 / (r * r)), "sigma_tree upper")
        expect(position.value == expected_trichotomy(r),
               f"trichotomy {position.value} for index {r!r}")
        expect(cls.kind.value == expected_index_class(r),
               f"classify_index {cls.kind.value} for index {r!r}")
        expect_close(cls.index, r, "classify_index index")
        for (c, tau), v in zip(taus, verdicts):
            expect(v.exists == (c <= 1.0), f"existence at c={c:.3f} says {v.exists}")
            if c < 1.0:
                expect(v.rank == g.n, f"rank {v.rank} inside sigma, n={g.n}")
            elif c == 1.0:
                expect(v.rank == g.n - 1, f"rank {v.rank} at the endpoint, n={g.n}")
        return False


class CyclicExistence(Workload):
    """``existence`` on graphs with cycles; a true verdict also constructs and
    verifies.

    Each round holds the fixed cycles C3..C24 at tau = 0.2 (below 1/4), at the
    middle of (1/4, sigma_cycle(n)] and at 1.1 sigma_cycle(n) when that is at
    most 1, and 42 seeded random connected graphs: two for every n in 10..30,
    cycle rank 1..5, with a per-edge tau. One of each pair has an unsigned Gram
    matrix that is PSD, the other one that is not, both by at least 1e-3.

    Kept as failed: the even cycles at the middle of (1/4, sigma_cycle(n)],
    eleven per round. ``existence`` tests only the unsigned Gram matrix, whose
    least eigenvalue on an even cycle is 1 - 2 sqrt(tau) < 0 there, while the
    signing with one negative edge is PSD, so the paper's Sigma(C_n) holds
    tau and the verdict is false.
    """

    name = "cyclic-existence"
    trace_rounds = 6
    SIZES = range(10, 31)
    SPLIT = 1e-3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        cases = []
        for n in range(3, 25):
            edges = [(v, v + 1) for v in range(1, n)] + [(1, n)]
            s = quarter_sigma(n)
            for tau in (0.2, (0.25 + s) / 2.0, 1.1 * s):
                if tau <= 1.0:
                    cases.append(("cycle", n, edges, tau))
        for k, n in enumerate(self.SIZES):
            for psd in (True, False):
                extra = 1 + (2 * k + psd) % 5
                edges, tau = self._random_case(rng, n, extra, psd)
                cases.append(("random", n, edges, tau))
        rng.shuffle(cases)
        self.cases = cases

    def _random_case(self, rng, n, extra, psd):
        while True:
            edges = random_connected_edges(rng, n, extra)
            mu = -float(np.linalg.eigvalsh(adjacency_np(n, edges))[0])
            kappa = rng.uniform(0.3, 0.9) if psd else rng.uniform(1.3, 2.0)
            us = {e: rng.uniform(0.5, 1.0) for e in edges}
            for _ in range(8):
                tau = {e: min(1.0, kappa * u / (mu * mu)) for e, u in us.items()}
                lam = least_gram_eig(n, edges, tau)
                if (lam >= self.SPLIT) if psd else (lam <= -self.SPLIT):
                    return edges, tau
                kappa *= 0.7 if psd else 1.3

    def build(self, ag, workdir):
        return [ag.Graph.from_edges(edges, n=n) for _, n, edges, _ in self.cases]

    def round_ops(self, ag, graphs):
        ops = []
        for (kind, n, edges, tau), g in zip(self.cases, graphs):
            fresh = ag.Graph(g.n, g.edges)
            ops.append(Op(
                run=lambda g=fresh, tau=tau: self._answer(ag, g, tau),
                check=lambda out, kind=kind, n=n, edges=edges, tau=tau:
                    self._check(out, kind, n, edges, tau),
            ))
        return ops

    @staticmethod
    def _answer(ag, g, tau):
        verdict = ag.existence(g, tau)
        if not verdict.exists:
            return verdict, None, None
        config = ag.construct_configuration(g, tau)
        return verdict, config, ag.verify_configuration(config, g, tau)

    @staticmethod
    def _check(out, kind, n, edges, tau) -> bool:
        verdict, config, report = out
        lam = least_gram_eig(n, edges, tau)
        if lam >= PSD_MARGIN:
            expect(verdict.exists, f"{kind} n={n}: unsigned Gram PSD (lambda {lam:.3e}) "
                                   "but existence is false")
        if kind == "cycle":
            s = quarter_sigma(n)
            if verdict.exists != (tau <= s):
                if n % 2 == 0 and 0.25 < tau <= s and not verdict.exists:
                    return True
                raise CheckError(f"C{n} at tau={tau:.6f}: existence {verdict.exists}, "
                                 f"sigma_cycle {s:.6f}")
        if verdict.exists:
            expect(report.passed, f"{kind} n={n}: verification failed, "
                                  f"max residual {report.max_residual:.3e}")
            check_configuration(config, n, edges, tau)
        return False


class LargeConstruct(Workload):
    """Construct, verify, export, reload and verify again, on graphs of 16 to
    96 vertices.

    Each round is the fixed schedule below: D_n and paths (structure fixed,
    tau seeded), seeded random trees and denser random graphs (a random tree
    plus 2n edges). ``interior`` is tau = c/mu^2 with c in [0.3, 0.9] and mu
    = -(least adjacency eigenvalue), so the unsigned Gram matrix is positive
    definite; ``endpoint`` is the tree endpoint tau = 1/r^2, where one
    dimension drops.
    """

    name = "large-construct"
    trace_rounds = 2
    SCHEDULE = (
        (16, "D", "interior"), (16, "dense", "interior"),
        (20, "path", "endpoint"), (20, "tree", "interior"),
        (24, "dense", "interior"), (24, "D", "endpoint"),
        (28, "tree", "endpoint"), (28, "path", "interior"),
        (32, "dense", "interior"), (32, "D", "interior"),
        (40, "tree", "interior"), (40, "dense", "interior"),
        (48, "D", "endpoint"), (64, "path", "endpoint"),
        (96, "D", "interior"),
    )
    # The tracer puts a stand-in here that times documents.
    codec = json

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.cases = []
        for n, kind, where in self.SCHEDULE:
            if kind == "D":
                edges = D_EDGES(n)
            elif kind == "path":
                edges = [(v, v + 1) for v in range(1, n)]
            elif kind == "tree":
                edges = random_tree_edges(rng, n)
            else:
                edges = random_connected_edges(rng, n, 2 * n)
            edges = sorted(edges)
            mu = -float(np.linalg.eigvalsh(adjacency_np(n, edges))[0])
            c = rng.uniform(0.3, 0.9) if where == "interior" else 1.0
            tau = c / (mu * mu)
            rank = n if where == "interior" else n - 1
            expect(gram_rank(gram_np(n, edges, tau)) == rank,
                   f"{kind}{n}: the Gram matrix does not have rank {rank}")
            self.cases.append((kind, n, edges, tau))

    def build(self, ag, workdir):
        graphs = []
        for kind, n, edges, _ in self.cases:
            if kind == "D":
                graphs.append(ag.generate_named(ag.NamedFamily("D", n)))
            elif kind == "path":
                graphs.append(ag.generate_named(ag.NamedFamily("A", n)))
            else:
                graphs.append(ag.Graph.from_edges(edges, n=n))
        return graphs

    def prepare(self, graphs):
        for (kind, n, edges, _), g in zip(self.cases, graphs):
            expect(sorted(g.edges) == edges, f"{kind}{n} built with other edges")

    def round_ops(self, ag, graphs):
        ops = []
        for (kind, n, edges, tau), g in zip(self.cases, graphs):
            fresh = ag.Graph(g.n, g.edges)
            ops.append(Op(
                run=lambda g=fresh, tau=tau: self._answer(ag, g, tau),
                check=lambda out, n=n, edges=edges, tau=tau: self._check(out, n, edges, tau),
            ))
        return ops

    def _answer(self, ag, g, tau):
        config = ag.construct_configuration(g, tau)
        report = ag.verify_configuration(config, g, tau)
        text = self.codec.dumps(ag.configuration_document(config, g, tau, report))
        loaded, g2, w2 = ag.load_configuration(self.codec.loads(text))
        return config, report, loaded, g2, w2, ag.verify_configuration(loaded, g2, w2)

    @staticmethod
    def _check(out, n, edges, tau) -> bool:
        config, report, loaded, g2, w2, report2 = out
        expect(report.passed, f"n={n}: verification failed, "
                              f"max residual {report.max_residual:.3e}")
        check_configuration(config, n, edges, tau)
        expect(np.array_equal(loaded.vectors, config.vectors), f"n={n}: reloaded vectors differ")
        expect(loaded.ambient_dim == config.ambient_dim, f"n={n}: reloaded ambient_dim differs")
        expect(sorted(g2.edges) == edges, f"n={n}: reloaded graph differs")
        expect(w2.constant == tau, f"n={n}: reloaded tau differs")
        expect(report2.passed, f"n={n}: reloaded configuration fails verification")
        return False


class CliSession(Workload):
    """In-process ``angleset.cli.main(argv)`` calls with stdout captured.

    One round is ``VARIANTS`` times the 25 calls of ``_calls``, 100 distinct
    calls: all seven subcommands, text and JSON, on named specs whose size
    grows with the variant and on two seeded edge-list files per variant (a
    random tree on 12 vertices and a random connected graph on 14 vertices
    with cycle rank 3). ``construct --out`` writes into the run's work
    directory and ``verify --in`` reads the file back.
    """

    name = "cli-session"
    trace_rounds = 25
    VARIANTS = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [
            {
                "tree_edges": random_tree_edges(rng, 12),
                "graph_edges": random_connected_edges(rng, 14, 3),
                "c": [rng.uniform(0.3, 0.9) for _ in range(4)],
                "c_above": rng.uniform(1.1, 1.9),
            }
            for _ in range(self.VARIANTS)
        ]

    def build(self, ag, workdir):
        importlib.import_module("angleset.cli")
        for k, inp in enumerate(self.inputs):
            (workdir / f"tree{k}.txt").write_text(
                "".join(f"{i} {j}\n" for i, j in inp["tree_edges"]))
            (workdir / f"graph{k}.txt").write_text(
                "# random connected graph, cycle rank 3\nn 14\n"
                + "".join(f"{i} {j}\n" for i, j in inp["graph_edges"]))
        return workdir

    def prepare(self, workdir):
        for inp in self.inputs:
            inp["r_tree"] = index_np(12, inp["tree_edges"])
            eig = np.linalg.eigvalsh(adjacency_np(14, inp["graph_edges"]))
            inp["r_graph"], inp["mu_graph"] = float(eig[-1]), -float(eig[0])

    def round_ops(self, ag, workdir):
        return [
            Op(run=lambda argv=argv: self._call(ag, argv),
               check=lambda out, check=check: self._check(out, check))
            for k in range(self.VARIANTS)
            for argv, check in self._calls(workdir, k)
        ]

    @staticmethod
    def _call(ag, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ag.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _check(out, check) -> bool:
        code, stdout, stderr = out
        expect(code == 0 and not stderr, f"exit code {code}, stderr {stderr.strip()!r}")
        check(stdout)
        return False

    def _calls(self, workdir: Path, k: int):
        """Variant ``k``: A_{12+k}, D_{10+2k}, C_{8+2k}, D~_{6+2k}, K_{1,5+k}, D~_{2k+3}
        (K1,4 = D~4 at k = 0), E6..E8 (k even) or E~6..E~8 (k odd), and
        variant k's edge files and tau values."""
        inp = self.inputs[k]
        tree, graph = str(workdir / f"tree{k}.txt"), str(workdir / f"graph{k}.txt")
        cfg_d, cfg_e = str(workdir / f"d{k}.json"), str(workdir / f"e7-{k}.json")
        tree_edges = inp["tree_edges"]
        r, r_graph, mu = inp["r_tree"], inp["r_graph"], inp["mu_graph"]
        c = inp["c"]
        a, d, cyc, dt, star = 12 + k, 10 + 2 * k, 8 + 2 * k, 6 + 2 * k, 5 + k
        h_a, h_d = a + 1, 2 * d - 2
        s_a, s_d, s_e7, s_e8 = (quarter_sigma(h) for h in (h_a, h_d, 18, 30))
        tau_e8 = c[0] * s_e8
        tau_tree_above = inp["c_above"] / (r * r)
        tau_graph = c[1] / (mu * mu)
        tau_d = c[2] * s_d
        tau_e7 = c[3] * s_e7
        tau_tree_end = 1.0 / (r * r)
        fmt = ["--format", "json"] if k % 2 == 0 else []
        parse = json.loads if k % 2 == 0 else text_fields
        if k % 2 == 0:
            exceptional = [(name, quarter_sigma(h), f"1/(4cos^2(pi/{h}))", "AboveQuarter")
                           for name, h in (("E6", 12), ("E7", 18), ("E8", 30))]
        else:
            exceptional = [(name, 0.25, "1/4", "EqualQuarter") for name in ("E~6", "E~7", "E~8")]
        critical, critical_label = ("K1,4", "D~4") if k == 0 else (f"D~{2 * k + 3}",) * 2
        return [
            (["spectrum", "--graph", f"A{a}", "--format", "json"], lambda s: expect_all_close(
                json.loads(s)["eigenvalues"],
                [2 * math.cos(j * math.pi / h_a) for j in range(1, a + 1)],
                f"A{a} eigenvalues")),
            (["spectrum", "--file", tree], lambda s: (
                expect_close(float(text_fields(s)["index"]), r, "tree index"),
                expect_close(float(text_fields(s)["min_eigenvalue"]), -r, "tree least eigenvalue"))),
            (["spectrum", "--graph", f"C{cyc}"], lambda s: (
                expect_close(float(text_fields(s)["index"]), 2.0, f"C{cyc} index"),
                expect_close(float(text_fields(s)["min_eigenvalue"]), -2.0,
                             f"C{cyc} least eigenvalue"))),
            (["sigma", "--graph", f"A{a}"], lambda s: expect_sigma(
                text_fields(s), s_a, f"1/(4cos^2(pi/{h_a}))", "AboveQuarter")),
            (["sigma", "--graph", f"D{d}", "--format", "json"], lambda s: expect_sigma(
                json.loads(s), s_d, f"1/(4cos^2(pi/{h_d}))", "AboveQuarter")),
            *[
                (["sigma", "--graph", name, *fmt],
                 lambda s, upper=upper, form=form, pos=pos: expect_sigma(parse(s), upper, form, pos))
                for name, upper, form, pos in exceptional
            ],
            (["sigma", "--graph", f"D~{dt}"], lambda s: expect_sigma(
                text_fields(s), 0.25, "1/4", "EqualQuarter")),
            (["sigma", "--graph", f"C{cyc}", "--format", "json"], lambda s: expect_sigma(
                json.loads(s), quarter_sigma(cyc), f"1/(4cos^2(pi/{cyc}))", None)),
            (["sigma", "--file", tree, "--format", "json"], lambda s: (
                expect_close(json.loads(s)["sigma_upper"], min(1.0, 1 / (r * r)), "tree sigma"),
                expect(json.loads(s)["trichotomy"] == expected_trichotomy(r), "tree trichotomy"))),
            (["exists", "--graph", "E8", "--tau", repr(tau_e8), "--format", "json"],
             lambda s: expect_verdict(json.loads(s), True, 8)),
            (["exists", "--graph", f"A{a}", "--tau", repr(s_a)],
             lambda s: expect_verdict(text_fields(s), True, a - 1)),
            (["exists", "--file", tree, "--tau", repr(tau_tree_above), "--format", "json"],
             lambda s: expect_verdict(json.loads(s), False, None)),
            (["exists", "--file", graph, "--tau", repr(tau_graph)],
             lambda s: expect_verdict(text_fields(s), True, 14)),
            (["classify", "--graph", f"K1,{star}", "--format", "json"], lambda s: expect_class(
                json.loads(s), ["supercritical"], math.sqrt(star))),
            (["classify", "--graph", critical], lambda s: expect_class(
                text_fields(s), [critical_label], 2.0)),
            (["classify", "--graph", f"D~{dt}", "--format", "json"], lambda s: expect_class(
                json.loads(s), [f"D~{dt}"], 2.0)),
            (["classify", "--file", graph], lambda s: expect_class(
                text_fields(s), None, r_graph)),
            (["construct", "--graph", f"D{d}", "--tau", repr(tau_d), "--out", cfg_d],
             lambda s: expect_written(s, cfg_d, d, D_EDGES(d), tau_d)),
            (["verify", "--in", cfg_d, "--format", "json"],
             lambda s: expect(json.loads(s)["passed"] is True, f"verify --in D{d} failed")),
            (["construct", "--file", tree, "--tau", repr(tau_tree_end)],
             lambda s: expect_document(json.loads(s), 11, 12, tree_edges, tau_tree_end)),
            (["construct", "--graph", "E7", "--tau", repr(tau_e7), "--out", cfg_e, "--format", "json"],
             lambda s: expect_written(s, cfg_e, 7, E7_EDGES, tau_e7)),
            (["verify", "--in", cfg_e],
             lambda s: expect(text_fields(s)["passed"] == "true", "verify --in E7 failed")),
            (["sweep", "--graph", "E7", "--steps", str(20 + k)],
             lambda s: expect_sweep_csv(s, s_e7, 7, 20 + k)),
            (["sweep", "--file", tree, "--tau-min", "0.02", "--tau-max", "0.6", "--steps", "15",
              "--format", "json"],
             lambda s: expect_sweep_rows(json.loads(s)["rows"], 1 / (r * r), 12)),
        ]


def D_EDGES(n: int) -> list[tuple[int, int]]:
    return [(1, 3), (2, 3)] + [(v, v + 1) for v in range(3, n)]


E7_EDGES = sorted([(v, v + 1) for v in range(1, 6)] + [(3, 7)])


def text_fields(stdout: str) -> dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines())


def expect_all_close(got, want, what: str) -> None:
    expect(len(got) == len(want), f"{what}: {len(got)} values, expected {len(want)}")
    for g, w in zip(got, want):
        expect_close(g, w, what)


def expect_sigma(fields: dict, upper: float, form: str, position: str | None) -> None:
    """``sigma`` output, parsed from text or JSON."""
    expect_close(float(fields["sigma_upper"]), upper, "sigma_upper")
    expect(fields.get("closed_form") == form, f"closed_form {fields.get('closed_form')!r}")
    expect(fields.get("trichotomy") == position, f"trichotomy {fields.get('trichotomy')!r}")


def expect_verdict(fields: dict, exists: bool, rank: int | None) -> None:
    got = fields["exists"]
    expect(got in (exists, "true" if exists else "false"), f"exists {got!r}")
    if rank is not None:
        expect(int(fields["rank"]) == rank, f"rank {fields['rank']}, expected {rank}")


def expect_class(fields: dict, labels: list[str] | None, index: float) -> None:
    expect_close(float(fields["index"]), index, "index")
    expect(fields["index_class"] == expected_index_class(index),
           f"index_class {fields['index_class']}")
    if labels is None:
        return
    comps = fields["components"]
    got = [c["label"] for c in comps] if isinstance(comps, list) else comps.split(", ")
    expect(got == labels, f"components {got}")


def expect_document(doc: dict, ambient: int, n: int, edges, tau: float) -> None:
    expect(doc["ambient_dim"] == ambient, f"ambient_dim {doc['ambient_dim']}, expected {ambient}")
    expect(doc["report"]["passed"] is True, "construct report did not pass")
    expect(doc["tau"] == tau, "document tau differs")
    expect([tuple(e) for e in doc["graph"]] == sorted(edges), "document graph differs")
    dev = gram_deviation(np.array(doc["vectors"]), n, edges, tau)
    expect(dev <= GRAM_TOL, f"document |V V^T| deviates by {dev:.3e}")


def expect_written(stdout: str, path: str, n: int, edges, tau: float) -> None:
    expect(stdout.strip() == f"wrote {path} (ambient_dim {n}, verification passed)",
           f"construct --out printed {stdout.strip()!r}")
    expect_document(json.loads(Path(path).read_text()), n, n, edges, tau)


def expect_sweep_rows(rows, upper: float, n: int) -> None:
    for row in rows:
        tau = row["tau"]
        if abs(tau - upper) <= 1e-6:
            continue
        inside = tau < upper
        expect(row["exists"] == inside, f"sweep at tau={tau}: exists {row['exists']}")
        if inside:
            expect(row["rank"] == n, f"sweep at tau={tau}: rank {row['rank']}")


def expect_sweep_csv(stdout: str, upper: float, n: int, steps: int) -> None:
    lines = stdout.splitlines()
    expect(lines[0] == "tau,min_eigenvalue,exists,rank", f"sweep header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        tau, _, exists, rank = line.split(",")
        rows.append({"tau": float(tau), "exists": exists == "true", "rank": int(rank)})
    expect(len(rows) == steps, f"sweep printed {len(rows)} rows, expected {steps}")
    expect_sweep_rows(rows, upper, n)


WORKLOADS = {w.name: w for w in (TreeScan, CyclicExistence, LargeConstruct, CliSession)}
