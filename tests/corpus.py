"""Deterministic graph corpora shared across the test suite.

The boundary-law corpus holds 4,462 distinct labeled trees: every labeled
tree on up to 6 vertices (1,441 of them, counts checked against Cayley's
formula n**(n-2)) plus fixed-seed uniform samples of 1,510 trees on 7 and
1,511 trees on 8 vertices. Sampling draws Pruefer sequences by index without
replacement, so the samples are exactly uniform and duplicate-free.
"""

from __future__ import annotations

import random
from functools import lru_cache

from angleset import Graph, IndexKind, NamedFamily, generate_named, tree_from_pruefer

CORPUS_SEED = 318008
SAMPLES_7 = 1510
SAMPLES_8 = 1511


def pruefer_from_index(n: int, idx: int) -> tuple[int, ...]:
    """The idx-th Pruefer sequence for n vertices, base-n digit expansion."""
    seq = []
    for _ in range(n - 2):
        idx, digit = divmod(idx, n)
        seq.append(digit + 1)
    return tuple(seq)


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[Graph, ...]:
    """Every labeled tree on n vertices (exhaustive, n <= 6 intended)."""
    if n == 1:
        return (Graph(1, frozenset()),)
    return tuple(
        tree_from_pruefer(n, pruefer_from_index(n, k)) for k in range(n ** (n - 2))
    )


@lru_cache(maxsize=None)
def sampled_trees(n: int, count: int, seed: int = CORPUS_SEED) -> tuple[Graph, ...]:
    """Uniform sample of ``count`` distinct labeled trees on n vertices."""
    rng = random.Random(seed + n)
    indices = rng.sample(range(n ** (n - 2)), count)
    return tuple(tree_from_pruefer(n, pruefer_from_index(n, k)) for k in indices)


@lru_cache(maxsize=None)
def boundary_tree_corpus() -> tuple[Graph, ...]:
    """4,462 distinct labeled trees spanning 2..8 vertices."""
    trees: list[Graph] = []
    for n in range(2, 7):
        trees.extend(all_trees(n))
    trees.extend(sampled_trees(7, SAMPLES_7))
    trees.extend(sampled_trees(8, SAMPLES_8))
    return tuple(trees)


def cycle(n: int) -> Graph:
    return generate_named(NamedFamily("cycle", n))


@lru_cache(maxsize=None)
def random_connected_graphs(
    count: int = 500, max_n: int = 8, seed: int = CORPUS_SEED
) -> tuple[Graph, ...]:
    """Random connected graphs: a uniform spanning tree plus random extra edges."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = rng.randint(2, max_n)
        if n == 2:
            edges = {(1, 2)}
        else:
            seq = pruefer_from_index(n, rng.randrange(n ** (n - 2)))
            edges = set(tree_from_pruefer(n, seq).edges)
        extra_rate = rng.uniform(0.0, 0.5)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in edges and rng.random() < extra_rate:
                    edges.add((i, j))
        out.append(Graph(n, frozenset(edges)))
    return tuple(out)


def pendant_probe(g: Graph, at: int) -> Graph:
    """``g`` plus one new vertex attached to vertex ``at``: a strict supergraph."""
    return Graph(g.n + 1, g.edges | {(at, g.n + 1)})


def relabel(g: Graph, perm: dict[int, int]) -> Graph:
    """Apply a vertex permutation (a dict on 1..n) to ``g``."""
    edges = frozenset(
        (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges
    )
    return Graph(g.n, edges)


def shuffled(g: Graph, seed: int) -> tuple[Graph, dict[int, int]]:
    """A uniformly random relabeling of ``g`` together with the permutation."""
    rng = random.Random(seed)
    targets = list(g.vertices)
    rng.shuffle(targets)
    perm = dict(zip(g.vertices, targets))
    return relabel(g, perm), perm


def extended_family_graphs() -> list[tuple[str, Graph]]:
    """All tilde-family graphs used in classification checks."""
    out: list[tuple[str, Graph]] = []
    for n in range(2, 10):
        out.append((f"A~{n}", generate_named(NamedFamily("A~", n))))
    for n in range(4, 11):
        out.append((f"D~{n}", generate_named(NamedFamily("D~", n))))
    for tag in ("E~6", "E~7", "E~8"):
        out.append((tag, generate_named(NamedFamily(tag))))
    return out


def dynkin_family_graphs() -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    for n in range(1, 21):
        out.append((f"A{n}", generate_named(NamedFamily("A", n))))
    for n in range(4, 21):
        out.append((f"D{n}", generate_named(NamedFamily("D", n))))
    for tag in ("E6", "E7", "E8"):
        out.append((tag, generate_named(NamedFamily(tag))))
    return out


def index_kind(r: float) -> IndexKind:
    """The index class a numeric index r gives at a cut of 1e-9 about 2: the
    yardstick the tests hold the exact shapes' class against."""
    if r > 2.0 + 1e-9:
        return IndexKind.SUPERCRITICAL
    if r < 2.0 - 1e-9:
        return IndexKind.SUBCRITICAL
    return IndexKind.CRITICAL
