import sys
from collections import Counter

import numpy as np
import pytest

import angleset.admissible
import angleset.spectra
from angleset import graph_spectrum

import corpus


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


@pytest.fixture
def eig_calls(monkeypatch):
    """Sizes of the matrices ``eigen_symmetric`` solves, one entry per call,
    counted in every module that looks it up."""
    calls = []
    real = angleset.spectra.eigen_symmetric

    def counted(m, *args, **kwargs):
        calls.append(np.shape(m)[0])
        return real(m, *args, **kwargs)

    for module in (angleset.spectra, angleset.admissible):
        monkeypatch.setattr(module, "eigen_symmetric", counted)
    return calls


@pytest.fixture
def name_calls(monkeypatch):
    """``name_calls(*names)`` counts calls of the named angleset functions in
    every angleset module that holds one by name, into the returned Counter."""
    calls = Counter()

    def watch(*names):
        for name in names:
            real = getattr(angleset, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in list(sys.modules.values()):
                if module.__name__.startswith("angleset") and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return watch
