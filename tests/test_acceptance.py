"""Acceptance suite: ten end-to-end checks of the package's headline claims.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS/FAIL`` summary line (run with ``-s`` to see them all;
pytest's own verdict per test is the authoritative signal). The tree corpus,
tolerances and sample counts are fixed, so the suite is fully deterministic.
"""

import math
import random
import time

from angleset import (
    IndexKind,
    adjacency_matrix,
    classify_structure,
    construct_configuration,
    existence,
    generate_named,
    graph_spectrum,
    parse_named_spec,
    sigma_cycle,
    sigma_tree,
    verify_configuration,
)
import corpus
from charpoly import brackets_root, char_poly, square_free


def _report(num: int, failures: list, detail: str) -> None:
    """Print the one-line verdict for a criterion, then assert it."""
    ok = not failures
    note = detail if ok else f"{len(failures)} failure(s), first: {failures[0]}"
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {note}")
    assert ok, note


def test_criterion_01_closed_form_sigma_table():
    start = time.perf_counter()
    table = []
    for n in range(2, 21):
        table.append((f"A{n}", 1 / (4 * math.cos(math.pi / (n + 1)) ** 2)))
    for n in range(4, 21):
        table.append((f"D{n}", 1 / (4 * math.cos(math.pi / (2 * (n - 1))) ** 2)))
    for tag, denom in [("E6", 12), ("E7", 18), ("E8", 30)]:
        table.append((tag, 1 / (4 * math.cos(math.pi / denom) ** 2)))
    failures = []
    for tag, expected in table:
        got = sigma_tree(generate_named(parse_named_spec(tag))).upper
        if abs(got - expected) > 1e-9:
            failures.append(f"{tag}: got {got!r}, want {expected!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, failures, f"{len(table)} closed forms within 1e-9 in {elapsed:.2f}s")


def test_criterion_02_tree_boundary_law(boundary_trees):
    failures = []
    for n in range(2, 7):
        if len(corpus.all_trees(n)) != n ** (n - 2):
            failures.append(f"tree count for n={n} disagrees with Cayley")
    if len(boundary_trees) != 4462:
        failures.append(f"corpus holds {len(boundary_trees)} trees, want 4462")

    start = time.perf_counter()
    for g, r, _q in boundary_trees:
        boundary = 1.0 / (r * r)
        if not existence(g, min(1.0, boundary)).exists:
            failures.append(f"{sorted(g.edges)}: no existence at the endpoint")
            break
        if not existence(g, boundary * (1 - 1e-6)).exists:
            failures.append(f"{sorted(g.edges)}: no existence just inside")
            break
        above = boundary * (1 + 1e-6)
        try:
            still_there = existence(g, above).exists
        except ValueError:
            # the single-edge tree: its endpoint is 1, and points above it
            # leave the parameter domain altogether
            still_there = False
        if still_there:
            failures.append(f"{sorted(g.edges)}: existence survives past the endpoint")
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s, budget 30s")
    _report(
        2,
        failures,
        f"boundary law on {len(boundary_trees)} trees (counts Cayley-checked) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_03_min_eigenvalue_identity(boundary_trees):
    rng = random.Random(corpus.CORPUS_SEED)
    failures = []
    worst = 0.0
    for g, _r, q in boundary_trees:
        for _ in range(5):
            tau = rng.uniform(1e-3, 1.0)
            lam = existence(g, tau).min_eigenvalue
            dev = abs(lam - (1 + math.sqrt(tau) * q))
            worst = max(worst, dev)
            if dev > 1e-8:
                failures.append(f"{sorted(g.edges)} at tau={tau}: deviation {dev:.2e}")
                break
        if failures:
            break
    _report(3, failures, f"5 draws per tree, worst |lam_min - (1+sqrt(tau) q)| = {worst:.2e}")


def test_criterion_04_extreme_eigenvalues_mirror(boundary_trees):
    failures = []
    worst = 0.0
    for g, r, q in boundary_trees:
        dev = abs(r + q)
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"{sorted(g.edges)}: |r + q| = {dev:.2e}")
            break
    _report(4, failures, f"worst |r + q| over {len(boundary_trees)} trees = {worst:.2e}")


def test_criterion_05_index_bounds(boundary_trees, cycle_corpus, random_connected_corpus):
    graphs = [(g, r) for g, r, _q in boundary_trees]
    graphs += [(g, graph_spectrum(g).index) for g in cycle_corpus]
    graphs += [(g, graph_spectrum(g).index) for g in random_connected_corpus]
    failures = []
    for g, r in graphs:
        if g.num_edges >= 1 and not 1.0 - 1e-9 <= r <= g.n - 1 + 1e-9:
            failures.append(f"{sorted(g.edges)}: r={r!r} outside [1, n-1]")
            break
        if r < 2 * math.cos(math.pi / (g.n + 1)) - 1e-9:
            failures.append(f"{sorted(g.edges)}: r={r!r} below the path's index")
            break
    _report(5, failures, f"index bounds hold on {len(graphs)} connected graphs")


def test_criterion_06_critical_classification(
    boundary_trees, cycle_corpus, random_connected_corpus
):
    """The exact shapes' index class against the numeric index."""
    failures = []
    everything = [(g, r) for g, r, _q in boundary_trees]
    everything += [(g, graph_spectrum(g).index)
                   for g in [*cycle_corpus, *random_connected_corpus]]
    for g, r in everything:
        if classify_structure(g).predicted_index_kind is not corpus.index_kind(r):
            failures.append(f"{sorted(g.edges)}: shape and index {r!r} disagree")
            break

    for tag, g in corpus.extended_family_graphs():
        r = graph_spectrum(g).index
        if classify_structure(g).predicted_index_kind is not IndexKind.CRITICAL:
            failures.append(f"{tag}: shape not critical")
        if abs(r - 2) > 1e-9:
            failures.append(f"{tag}: expected index 2, got {r!r}")
    for tag, g in corpus.dynkin_family_graphs():
        r = graph_spectrum(g).index
        if classify_structure(g).predicted_index_kind is not IndexKind.SUBCRITICAL:
            failures.append(f"{tag}: shape not subcritical")
        if corpus.index_kind(r) is not IndexKind.SUBCRITICAL:
            failures.append(f"{tag}: expected index below 2, got {r!r}")

    probes = 0
    for tag, g in corpus.extended_family_graphs():
        for at in g.vertices:
            probe = corpus.pendant_probe(g, at)
            probes += 1
            if corpus.index_kind(graph_spectrum(probe).index) is not IndexKind.SUPERCRITICAL:
                failures.append(f"{tag} + pendant at {at}: index not above 2")
            if (
                classify_structure(probe).predicted_index_kind
                is not IndexKind.SUPERCRITICAL
            ):
                failures.append(f"{tag} + pendant at {at}: shape not supercritical")
    _report(
        6,
        failures,
        f"shape and index agree on {len(everything)} graphs; {probes} supergraph "
        "probes all supercritical",
    )


def test_criterion_07_quarter_trichotomy(boundary_trees):
    failures = []
    counts = {"above": 0, "equal": 0, "below": 0}
    for g, _r, _q in boundary_trees:
        shape = classify_structure(g).components[0]
        upper = sigma_tree(g).upper
        if shape.is_extended:
            counts["equal"] += 1
            ok = abs(upper - 0.25) <= 1e-9
        elif shape.family == "supercritical":
            counts["below"] += 1
            ok = upper < 0.25 - 1e-9
        else:
            counts["above"] += 1
            ok = upper > 0.25 + 1e-9
        if not ok:
            failures.append(
                f"{sorted(g.edges)}: shape {shape.label} vs endpoint {upper!r}"
            )
            break
    for key in counts:
        if counts[key] == 0:
            failures.append(f"corpus exercised no '{key}' trees")
    _report(
        7,
        failures,
        "endpoint sits above/at/below 1/4 per shape "
        f"({counts['above']}/{counts['equal']}/{counts['below']} trees)",
    )


def test_criterion_08_construction_round_trip(boundary_trees):
    rng = random.Random(corpus.CORPUS_SEED + 8)
    picks = rng.sample(range(len(boundary_trees)), 200)
    failures = []
    boundary_cases = 0
    for k, pick in enumerate(picks):
        g, r, _q = boundary_trees[pick]
        upper = sigma_tree(g).upper
        at_boundary = k % 5 == 0
        tau = upper if at_boundary else rng.uniform(0.05, 0.999) * upper
        config = construct_configuration(g, tau)
        report = verify_configuration(config, g, tau)
        verdict = existence(g, tau)
        if not report.passed:
            failures.append(f"{sorted(g.edges)} at tau={tau}: residual {report.max_residual:.2e}")
            break
        if config.ambient_dim != verdict.rank:
            failures.append(
                f"{sorted(g.edges)}: ambient_dim {config.ambient_dim} != rank {verdict.rank}"
            )
            break
        if at_boundary:
            boundary_cases += 1
            if verdict.rank != g.n - 1:
                failures.append(
                    f"{sorted(g.edges)} at the endpoint: rank {verdict.rank} != n-1"
                )
                break
    _report(
        8,
        failures,
        f"200 construct/verify round trips at 1e-8 ({boundary_cases} at the exact "
        "endpoint, each with rank n-1)",
    )


def test_criterion_09_cycle_formula():
    failures = []
    for n in range(3, 13):
        got = sigma_cycle(n).upper
        want = 1 / (4 * math.cos(math.pi / n) ** 2)
        if abs(got - want) > 1e-12:
            failures.append(f"C{n}: endpoint {got!r} != {want!r}")
        if not got > 0.25:
            failures.append(f"C{n}: endpoint {got!r} not strictly above 1/4")

    # Even cycles: 1/lambda^2 = endpoint would need 2j = +-1 (mod n), which is
    # impossible by parity, and lambda_j = 2cos(2 pi j / n) vanishes exactly
    # when 4j = n (mod 2n). Both checks are exact integer arithmetic.
    for n in (4, 6, 8, 10, 12):
        for j in range(1, n):
            is_zero = (4 * j - n) % (2 * n) == 0
            collides = (2 * j) % n in (1 % n, (n - 1) % n)
            if is_zero:
                lam = 2 * math.cos(2 * math.pi * j / n)
                if abs(lam) > 1e-12:
                    failures.append(f"C{n}, j={j}: predicted zero eigenvalue is {lam!r}")
            elif collides:
                failures.append(f"C{n}, j={j}: nonzero eigenvalue collides with endpoint")
    _report(
        9,
        failures,
        "cycle endpoints match 1/(4cos^2(pi/n)) for n=3..12, exceed 1/4, and touch "
        "no even-cycle eigenvalue (exact parity check for n=4..12)",
    )


def test_criterion_10_eigensolver_against_exact_roots(
    boundary_trees, cycle_corpus, random_connected_corpus
):
    small = [g for g, _r, _q in boundary_trees if g.n <= 6]
    small += [g for g in cycle_corpus if g.n <= 6]
    small += [g for g in random_connected_corpus if g.n <= 6]
    failures = []
    for g in small:
        poly = square_free(char_poly(adjacency_matrix(g).tolist()))
        for lam in graph_spectrum(g).eigenvalues:
            if not brackets_root(poly, float(lam)):
                failures.append(f"{sorted(g.edges)}: {lam!r} not within 1e-8 of a root")
                break
        if failures:
            break
    _report(
        10,
        failures,
        f"all eigenvalues of {len(small)} small graphs bracketed by exact sign changes",
    )
