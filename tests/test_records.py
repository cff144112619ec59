"""The records the CLI loads are NamedTuples (never assigned after they are
made) or ``sexpr.Record`` subclasses (assigned to), and keep what their
dataclasses gave: constructor, fresh defaults, equality, hashability, the
``repr`` that ``tests/check_interpreters.py`` hashes, and pickling."""

import pickle
from pathlib import Path

import pytest

from mypddl.distance import DistanceFact, LocationFact
from mypddl.model import (
    ActionDecl,
    DurativeActionDecl,
    FunctionDecl,
    PddlDomain,
    PddlProblem,
    PredicateDecl,
    TypedEntry,
    TypedList,
)
from mypddl.sexpr import ParseDiagnostic, Severity, Span
from mypddl.snippets import SnippetDef, SnippetSet
from mypddl.typegraph import DiagramArtifacts, TypeGraph

ENTRY = TypedEntry("?x", "t", Span(3, 5), Span(8, 9))
ENTRY_TEXT = ("TypedEntry(name='?x', type_name='t', name_span=Span(start=3, "
              "end=5), type_span=Span(start=8, end=9))")

# Each record: a function making one instance, the repr its dataclass
# printed for that instance, whether the dataclass was frozen (and so
# hashable), and the fields the instance leaves to a fresh default.
RECORDS = {
    "ParseDiagnostic": (
        lambda: ParseDiagnostic(Span(0, 4), Severity.WARNING,
                                "it's \"odd\"", "bad-type"),
        "ParseDiagnostic(span=Span(start=0, end=4), severity=<Severity."
        "WARNING: 'warning'>, message='it\\'s \"odd\"', code='bad-type')",
        True, ()),
    "TypedEntry": (lambda: ENTRY, ENTRY_TEXT, True, ()),
    "TypedList": (
        lambda: TypedList([ENTRY]), f"TypedList(entries=[{ENTRY_TEXT}])",
        False, ()),
    "TypedList()": (
        TypedList, "TypedList(entries=[])", False, ("entries",)),
    "PredicateDecl": (
        lambda: PredicateDecl("at", TypedList([ENTRY]), "(at ?x - t)",
                              Span(0, 11)),
        f"PredicateDecl(name='at', parameters=TypedList(entries=[{ENTRY_TEXT}"
        "]), signature_text='(at ?x - t)', span=Span(start=0, end=11))",
        False, ()),
    "FunctionDecl": (
        lambda: FunctionDecl("f", TypedList(), "number", "(f)"),
        "FunctionDecl(name='f', parameters=TypedList(entries=[]), "
        "return_type='number', signature_text='(f)', span=None)",
        False, ()),
    "ActionDecl": (
        lambda: ActionDecl("move", TypedList([ENTRY]), span=Span(0, 40)),
        f"ActionDecl(name='move', parameters=TypedList(entries=[{ENTRY_TEXT}"
        "]), precondition=None, effect=None, span=Span(start=0, end=40))",
        False, ()),
    "DurativeActionDecl": (
        lambda: DurativeActionDecl(None, TypedList()),
        "DurativeActionDecl(name=None, parameters=TypedList(entries=[]), "
        "duration=None, condition=None, effect=None, span=None)",
        False, ()),
    "PddlDomain": (
        lambda: PddlDomain("d", [":strips"]),
        "PddlDomain(name='d', requirements=[':strips'], types=TypedList("
        "entries=[]), constants=TypedList(entries=[]), predicates=[], "
        "functions=[], actions=[], durative_actions=[], derived=[])",
        False, ("types", "constants", "predicates", "functions", "actions",
                "durative_actions", "derived")),
    "PddlProblem": (
        lambda: PddlProblem("p", "d"),
        "PddlProblem(name='p', domain_ref='d', objects=TypedList(entries=[]),"
        " init=[], goal=None, metric=None)",
        False, ("objects", "init")),
    "LocationFact": (
        lambda: LocationFact("a", (1.0, -2.5), Span(10, 28)),
        "LocationFact(object_name='a', coords=(1.0, -2.5), "
        "span=Span(start=10, end=28))",
        True, ()),
    "DistanceFact": (
        lambda: DistanceFact("a", "b", 2.2361),
        "DistanceFact(from_object='a', to_object='b', value=2.2361)",
        True, ()),
    "SnippetDef": (
        lambda: SnippetDef("p", "", "typed predicate declaration",
                           parametric=True),
        "SnippetDef(trigger='p', body='', description='typed predicate "
        "declaration', parametric=True)",
        True, ()),
    "SnippetSet": (
        lambda: SnippetSet({}),
        "SnippetSet(snippets={}, warnings=[])", False, ("warnings",)),
    "TypeGraph": (
        lambda: TypeGraph(edges={("t", "object")},
                          predicates_by_type={"t": ["(p ?x - t)"]}),
        "TypeGraph(nodes={'object'}, edges={('t', 'object')}, "
        "predicates_by_type={'t': ['(p ?x - t)']}, cycle_edges=set())",
        False, ("nodes", "cycle_edges")),
    "DiagramArtifacts": (
        lambda: DiagramArtifacts(Path("dot/d_1.dot"), None,
                                 Path("domains/d_1.pddl"), 1),
        f"DiagramArtifacts(dot_path={Path('dot/d_1.dot')!r}, image_path=None,"
        f" copied_domain_path={Path('domains/d_1.pddl')!r}, revision=1)",
        True, ()),
}


@pytest.mark.parametrize("make,text,frozen,fresh", RECORDS.values(),
                         ids=RECORDS.keys())
def test_a_record_keeps_its_dataclass_behaviour(make, text, frozen, fresh):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and not record != twin
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record) and clone == record
    assert repr(clone) == text

    first = (getattr(record, "_fields", None) or record.__slots__)[0]
    if isinstance(record, tuple):
        with pytest.raises(AttributeError):
            setattr(record, first, "other")
        other = record._replace(**{first: "other"})
    else:
        other = make()
        setattr(other, first, "other")
    assert record != other and not record == other

    if frozen:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for name in fresh:
        assert getattr(record, name) == getattr(twin, name)
        assert getattr(record, name) is not getattr(twin, name)
