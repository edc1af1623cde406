import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

import angleset.admissible
import angleset.classify
import angleset.spectra
from angleset import graph_spectrum

import corpus

# Every property test draws its examples from a seed fixed by the test
# itself, so a run repeats the last one's examples for the same Hypothesis
# and Python versions. A per-test @settings keeps this unless it says
# otherwise.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def boundary_trees():
    """The 4,462-tree corpus with cached adjacency extremes: (graph, r, q)."""
    out = []
    for g in corpus.boundary_tree_corpus():
        s = graph_spectrum(g)
        out.append((g, s.index, s.min_eigenvalue))
    return out


@pytest.fixture(scope="session")
def cycle_corpus():
    return [corpus.cycle(n) for n in range(3, 13)]


@pytest.fixture(scope="session")
def random_connected_corpus():
    return list(corpus.random_connected_graphs(500, max_n=8))


def _holders(name, real):
    """Every loaded angleset module whose attribute ``name`` is ``real``."""
    return [
        module for module in list(sys.modules.values())
        if module.__name__.startswith("angleset") and getattr(module, name, None) is real
    ]


@pytest.fixture
def eig_calls(monkeypatch):
    """Sizes of the matrices ``eigen_symmetric`` solves, one entry per call,
    counted in every angleset module that holds it by name."""
    calls = []
    real = angleset.spectra.eigen_symmetric

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m)[0])
        return real(m, *args, **kwargs)

    for module in _holders("eigen_symmetric", real):
        monkeypatch.setattr(module, "eigen_symmetric", counted)
    return calls


@pytest.fixture
def assemblies(monkeypatch):
    """The vertex count of every Gram matrix ``gram_matrix`` assembles, one
    entry per call, counted in every angleset module that holds it by name."""
    built = []
    real = angleset.admissible.gram_matrix

    def counted(g, tau):
        built.append(g.n)
        return real(g, tau)

    for module in _holders("gram_matrix", real):
        monkeypatch.setattr(module, "gram_matrix", counted)
    return built


@pytest.fixture
def tau_checks(monkeypatch):
    """The edge of each tau value that ``TauWeighting`` range-checks, one
    entry per check (``None`` for a constant)."""
    checked = []
    real = angleset.admissible._check_tau_value

    def counted(value, edge=None):
        checked.append(edge)
        return real(value, edge)

    monkeypatch.setattr(angleset.admissible, "_check_tau_value", counted)
    return checked


@pytest.fixture
def name_calls(monkeypatch):
    """``name_calls(*names)`` counts calls of the named angleset functions in
    every angleset module that holds one by name, into the returned Counter.
    A name the package does not export is looked up in ``admissible``."""
    calls = Counter()

    def watch(*names):
        for name in names:
            real = getattr(angleset, name, None) or getattr(angleset.admissible, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in _holders(name, real):
                monkeypatch.setattr(module, name, counted)
        return calls

    return watch


@pytest.fixture
def shape_passes(monkeypatch):
    """The vertex count of every component ``classify_structure`` shapes,
    one entry per component shaped; a memoised graph adds none."""
    shaped = []
    real = angleset.classify._component_shape

    def counted(nbrs, degree, verts):
        shaped.append(len(verts))
        return real(nbrs, degree, verts)

    monkeypatch.setattr(angleset.classify, "_component_shape", counted)
    return shaped
