"""The contract of the exported record types: fields that cannot be
assigned, value or identity equality as each type states, the memos that
``Graph`` keeps, what a certified ``ExistenceVerdict`` holds, and no
dataclass among them."""

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

import angleset
from angleset import (
    ComponentClass,
    ExistenceVerdict,
    Graph,
    GraphClass,
    IndexClass,
    IndexKind,
    NamedFamily,
    SigmaInterval,
    Spectrum,
    SubspaceConfiguration,
    TauWeighting,
    VerificationReport,
    existence,
    graph_spectrum,
    is_connected,
)
from angleset.graphs import _Record

# Each value type with a builder of equal fresh instances and one that
# differs from them in a single field.
VALUE_RECORDS = {
    Graph: (lambda: Graph(3, [(1, 2), (2, 3)]), lambda: Graph(4, [(1, 2), (2, 3)])),
    NamedFamily: (lambda: NamedFamily("D", 5), lambda: NamedFamily("D", 6)),
    TauWeighting: (lambda: TauWeighting(constant=0.2), lambda: TauWeighting(constant=0.3)),
    SigmaInterval: (lambda: SigmaInterval(0.25), lambda: SigmaInterval(0.5)),
    IndexClass: (lambda: IndexClass(IndexKind.CRITICAL, 2.0),
                 lambda: IndexClass(IndexKind.SUBCRITICAL, 2.0)),
    ComponentClass: (lambda: ComponentClass("A", 3, (1, 2, 3)),
                     lambda: ComponentClass("A", 3, (2, 3, 4))),
    GraphClass: (lambda: GraphClass((ComponentClass("A", 1, (1,)),)),
                 lambda: GraphClass((ComponentClass("A", 1, (2,)),))),
    VerificationReport: (lambda: VerificationReport(1e-16, 0.0, 0.0, 2e-16),
                         lambda: VerificationReport(1e-16, 0.0, 0.5, 2e-16)),
}

# Types whose instances compare by identity.
IDENTITY_RECORDS = {
    Spectrum: lambda: Spectrum(np.array([1.0, -1.0]), 0.0, None),
    SubspaceConfiguration: lambda: SubspaceConfiguration(np.eye(2)),
    ExistenceVerdict: lambda: ExistenceVerdict(True, 2, 1.0),
}

BUILDERS = {cls: pair[0] for cls, pair in VALUE_RECORDS.items()} | IDENTITY_RECORDS


def exported_classes() -> list[type]:
    return [obj for name in angleset.__all__
            if isinstance(obj := getattr(angleset, name), type)]


def test_every_exported_record_type_is_covered():
    # A record type annotates its fields in its class body.
    records = {cls for cls in exported_classes() if vars(cls).get("__annotations__")}
    assert records == set(BUILDERS)


def test_no_exported_class_is_a_dataclass():
    # Defining a dataclass execs its generated methods, which cost most of
    # the package's import time with bytecode cached.
    assert [cls.__name__ for cls in exported_classes() if dataclasses.is_dataclass(cls)] == []


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = BUILDERS[cls]()
    fields = list(cls.__annotations__)
    assert fields
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_a_record_takes_exactly_its_fields(cls):
    fields = BUILDERS[cls]()._fields()
    with pytest.raises(TypeError):
        cls(*fields, None)
    if "__init__" not in vars(cls):  # the generic constructor, with no defaults
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    # A record type's own __init__ passes its fields on to the generic one.
    blank = cls.__new__(cls)
    for wrong in (fields[:-1], (*fields, None)):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(fields)} fields, got"):
            _Record.__init__(blank, *wrong)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_slots_are_the_annotated_fields(cls):
    if "__slots__" in vars(cls):  # Graph keeps its memos in an instance __dict__
        assert vars(cls)["__slots__"] == tuple(cls.__annotations__)
    else:
        assert cls is Graph


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda cls: cls.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    build, build_other = VALUE_RECORDS[cls]
    a, b, other = build(), build(), build_other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and len({a, other}) == 2
    # Only instances of the same class compare equal.
    fields = tuple(getattr(a, name) for name in cls.__annotations__)
    assert a != fields and a != object()


@pytest.mark.parametrize("cls", IDENTITY_RECORDS, ids=lambda cls: cls.__name__)
def test_identity_records_compare_by_identity(cls):
    a, b = IDENTITY_RECORDS[cls](), IDENTITY_RECORDS[cls]()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a) and len({a, b}) == 2


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_records_survive_copy_and_pickle(cls):
    record = BUILDERS[cls]()
    twins = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for twin in twins:
        assert type(twin) is cls and repr(twin) == repr(record)
        assert twin == record or cls in IDENTITY_RECORDS


def test_a_per_edge_weighting_compares_by_value_but_is_unhashable():
    a = TauWeighting(per_edge={(1, 2): 0.2, (2, 3): 0.3})
    b = TauWeighting(per_edge=[((3, 2), 0.3), ((2, 1), 0.2)])
    assert a == b and a != TauWeighting(per_edge={(1, 2): 0.2, (2, 3): 0.4})
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_a_subclass_compares_by_the_fields_of_its_base():
    class MyGraph(Graph):
        pass

    class MyInterval(SigmaInterval):
        __slots__ = ()

    assert MyGraph(2, [(1, 2)]) == MyGraph(2, [(1, 2)]) != MyGraph(3, [(1, 2)])
    assert MyGraph(2, [(1, 2)]) != Graph(2, [(1, 2)])
    assert hash(MyInterval(0.25)) == hash(MyInterval(0.25))
    assert MyInterval(0.25) != MyInterval(0.5)
    assert repr(MyInterval(0.25)).endswith(".MyInterval(upper=0.25)")


def test_graph_memos_attach_to_the_instance():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    index = g._edge_index
    spectrum = graph_spectrum(g)
    assert is_connected(g)
    assert {"_edge_index", "_component_roots", "_spectrum"} <= set(vars(g))
    assert g._edge_index is index and graph_spectrum(g) is spectrum
    # A memo changes neither equality nor the hash.
    assert g == Graph(4, [(1, 2), (2, 3), (3, 4)])
    assert hash(g) == hash(Graph(4, [(1, 2), (2, 3), (3, 4)]))


@pytest.mark.parametrize("per_edge", [False, True], ids=["constant", "per-edge"])
def test_a_certified_verdict_holds_no_least_eigenvalue(eig_calls, name_calls, per_edge):
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    calls = name_calls("eigenvalues", "eigenpairs")
    verdict = existence(g, dict.fromkeys(g.edges, 0.2) if per_edge else 0.2)
    assert (verdict.exists, verdict.rank, verdict.min_eigenvalue) == (True, 4, None)
    assert (eig_calls, calls["eigenvalues"], calls["eigenpairs"]) == ([], 0, 0)
    assert not hasattr(verdict, "__dict__")


@pytest.mark.parametrize("per_edge", [False, True], ids=["constant", "per-edge"])
def test_a_certified_verdict_does_not_keep_its_graph_alive(per_edge):
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    verdict = existence(g, dict.fromkeys(g.edges, 0.2) if per_edge else 0.2)
    assert verdict.min_eigenvalue is None  # certified
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_from_edges_stays_a_classmethod():
    # The per-layer benchmark wraps it through the class __dict__.
    assert isinstance(vars(Graph)["from_edges"], classmethod)
    assert Graph.from_edges([(2, 1)]) == Graph(2, [(1, 2)])


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    text = repr(BUILDERS[cls]())
    assert text.startswith(f"{cls.__name__}(")
    shown = [name for name in cls.__annotations__ if not name.startswith("_")]
    assert all(f"{name}=" in text for name in shown)
