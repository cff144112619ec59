"""Type-graph construction, DOT emission, and revisioned rendering."""

import stat
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main
from mypddl.model import parse_domain
from mypddl.sexpr import Severity
from mypddl.typegraph import (
    RenderError,
    TypeGraph,
    build_type_graph,
    emit_dot,
    hierarchy_depth,
    render_diagram,
)

from conftest import corpus_text


def graph_for(text):
    domain, _ = parse_domain(text)
    return build_type_graph(domain)


def test_single_edge_with_implicit_root():
    graph, diagnostics = graph_for("(define (domain d) (:types hacker - person))")
    assert graph.nodes == {"object", "person", "hacker"}
    assert graph.edges == {("hacker", "person"), ("person", "object")}
    assert diagnostics == []


def test_empty_types_block():
    graph, _ = graph_for("(define (domain d) (:types))")
    assert graph.nodes == {"object"}
    assert graph.edges == set()


def test_splisus_fixture_counts():
    graph, diagnostics = graph_for(corpus_text("splisus.pddl"))
    assert len(graph.nodes) == 21
    assert hierarchy_depth(graph) == 6
    assert [d for d in diagnostics if d.severity is Severity.ERROR] == []
    chain = ["merle", "hupf", "splis", "gid", "ruffisplisus", "object"]
    for child, parent in zip(chain, chain[1:]):
        assert (child, parent) in graph.edges


def test_store_fixture_counts():
    graph, _ = graph_for(corpus_text("store.pddl"))
    assert len(graph.nodes) == 22
    assert hierarchy_depth(graph) == 7


def test_either_type_excluded_from_graph():
    domain, model_diagnostics = parse_domain(
        "(define (domain d) (:types a - (either b c) d - object))")
    graph, diagnostics = build_type_graph(domain)
    assert "a" in graph.nodes and "d" in graph.nodes
    assert ("a", "object") in graph.edges
    assert all(parent not in ("b", "c") and "either" not in parent
               for _, parent in graph.edges)
    assert [d.code for d in model_diagnostics] == ["either-type"]
    assert diagnostics == []


def test_multi_parent_kept_with_warning():
    graph, diagnostics = graph_for(
        "(define (domain d) (:types a - b a - c))")
    assert ("a", "b") in graph.edges and ("a", "c") in graph.edges
    assert any(d.code == "multi-parent" for d in diagnostics)


def test_cycle_reported_and_marked():
    graph, diagnostics = graph_for(
        "(define (domain d) (:types a - b b - a))")
    assert any(d.code == "type-cycle" and d.severity is Severity.ERROR
               for d in diagnostics)
    assert graph.cycle_edges
    # depth still terminates
    assert hierarchy_depth(graph) >= 1


def test_deep_type_chain_fits_the_stack(tmp_path):
    types = " ".join(f"t{i + 1} - t{i}" for i in range(5000))
    domain = tmp_path / "chain.pddl"
    domain.write_text(f"(define (domain d) (:types {types}))", encoding="utf-8")
    result = CliRunner().invoke(main, ["diagram", str(domain), "--out",
                                       str(tmp_path / "out"), "--no-render"])
    assert result.exit_code == 0, result.output
    graph, _ = graph_for(domain.read_text(encoding="utf-8"))
    assert hierarchy_depth(graph) == 5002
    assert not graph.cycle_edges


def test_depth_of_a_wide_dag_is_linear():
    # Two types per layer, each under both types of the layer above: the
    # number of root-to-leaf paths doubles with every layer.
    graph = TypeGraph()
    above = ["object"]
    for layer in range(22):
        names = [f"a{layer}", f"b{layer}"]
        for name in names:
            graph.nodes.add(name)
            graph.edges.update((name, parent) for parent in above)
        above = names
    start = time.perf_counter()
    assert hierarchy_depth(graph) == 23
    assert time.perf_counter() - start < 1.0


def test_cycle_diagnostics_keep_their_text_and_order():
    graph, diagnostics = graph_for(
        "(define (domain d) (:types a - b b - c c - a x - y y - x))")
    assert [d.message for d in diagnostics if d.code == "type-cycle"] == [
        "type hierarchy contains a cycle: a -> b -> c -> a",
        "type hierarchy contains a cycle: x -> y -> x",
    ]
    assert graph.cycle_edges == {("c", "a"), ("y", "x")}


def test_type_graph_diagnostics_point_at_their_declarations(tmp_path):
    domain = tmp_path / "cycle.pddl"
    domain.write_text("(define (domain d)\n"
                      "  (:types a - b b - a c - x c - y))\n",
                      encoding="utf-8")
    result = CliRunner().invoke(main, ["diagram", str(domain), "--out",
                                       str(tmp_path / "out"), "--no-render"])
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines() == [
        f"{domain}:1:1: warning: no renderer configured; image generation "
        "skipped [no-renderer]",
        f"{domain}:2:11: warning: type 'a' is not rooted at 'object' "
        "[orphan-type]",
        f"{domain}:2:17: error: type hierarchy contains a cycle: a -> b -> a "
        "[type-cycle]",
        f"{domain}:2:17: warning: type 'b' is not rooted at 'object' "
        "[orphan-type]",
        f"{domain}:2:29: warning: type 'c' is declared under several "
        "parents: x, y [multi-parent]",
    ]


def test_undeclared_types_point_at_their_predicate():
    text = corpus_text("logistics.pddl")
    domain, _ = parse_domain(text)
    _, diagnostics = build_type_graph(domain)
    undeclared = [d for d in diagnostics if d.code == "undeclared-type"]
    assert len(undeclared) == 5
    for diag in undeclared:
        name = diag.message.split("'")[3]
        spanned = text.encode("utf-8")[diag.span.start:diag.span.end]
        assert spanned.decode("utf-8").startswith(f"({name} ")


_TYPE_NAMES = st.sampled_from(["a", "b", "c", "object", "Object", "number"])


@given(st.lists(st.tuples(_TYPE_NAMES, _TYPE_NAMES), max_size=8),
       st.lists(_TYPE_NAMES, max_size=3))
@settings(max_examples=300)
def test_type_graph_diagnostics_lie_on_declarations(declarations, used):
    types = " ".join(f"{child} - {parent}" for child, parent in declarations)
    params = " ".join(f"?v{i} - {t}" for i, t in enumerate(used))
    text = f"(define (domain d) (:types {types}) (:predicates (p {params})))"
    _, diagnostics = graph_for(text)
    for diag in diagnostics:
        spanned = text[diag.span.start:diag.span.end]
        if diag.code == "undeclared-type":
            assert spanned.startswith("(p ")
        else:
            assert spanned in ("a", "b", "c", "object", "Object", "number")


def test_predicates_attach_to_each_parameter_type_once():
    # A compound parameter type gets no box of its own and is no undeclared
    # type.
    text = ("(define (domain d) (:types t u - object)\n"
            "  (:predicates (twice ?a - t ?b - t) (mixed ?a - t ?b - u)\n"
            "               (one ?a - (either t u))))")
    graph, diagnostics = graph_for(text)
    assert graph.predicates_by_type == {
        "t": ["(twice ?a - t ?b - t)", "(mixed ?a - t ?b - u)"],
        "u": ["(mixed ?a - t ?b - u)"]}
    assert diagnostics == []


def test_object_only_predicates_live_in_object_box():
    graph, _ = graph_for(
        "(define (domain d) (:predicates (flat ?a ?b)))")
    assert graph.predicates_by_type["object"] == ["(flat ?a ?b)"]


_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True).filter(
        lambda s: s not in ("object", "number", "either")),
    min_size=1, max_size=6, unique=True)


@given(_names, st.data())
@settings(max_examples=100)
def test_predicate_attachment_completeness(names, data):
    declared = " ".join(f"{n} - object" for n in names)
    pred_count = data.draw(st.integers(min_value=1, max_value=4))
    predicates = []
    param_types = []
    for i in range(pred_count):
        types = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                   max_size=3))
        params = " ".join(f"?v{j} - {t}" for j, t in enumerate(types))
        predicates.append(f"(pred{i} {params})")
        param_types.append(set(types))
    text = (f"(define (domain d) (:types {declared}) "
            f"(:predicates {' '.join(predicates)}))")
    graph, _ = graph_for(text)
    for i, signature in enumerate(predicates):
        for type_name in names:
            in_box = signature in graph.predicates_by_type.get(type_name, [])
            assert in_box == (type_name in param_types[i])


def test_emit_dot_hacker_person():
    graph, _ = graph_for("(define (domain d) (:types hacker - person))")
    dot = emit_dot(graph)
    node_lines = [l for l in dot.splitlines() if "[label=" in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 3
    assert len(edge_lines) == 2
    assert '"hacker" -> "person" [arrowhead=empty];' in dot


def test_emit_dot_object_only():
    graph, _ = graph_for("(define (domain d) (:types))")
    dot = emit_dot(graph)
    assert len([l for l in dot.splitlines() if "[label=" in l]) == 1
    assert "->" not in dot


def test_emit_dot_store_lila_box_verbatim():
    graph, _ = graph_for(corpus_text("store.pddl"))
    dot = emit_dot(graph)
    assert "(product-at ?l1 - lola ?l2 - lila)" in dot
    lila_line = next(l for l in dot.splitlines() if l.startswith('  "lila"'))
    assert "(owns ?l - lila ?s - spax)" in lila_line


def test_emit_dot_deterministic():
    text = corpus_text("splisus.pddl")
    assert emit_dot(graph_for(text)[0]) == emit_dot(graph_for(text)[0])


def test_render_diagram_revisions_ascend(tmp_path):
    domain_file = tmp_path / "splisus.pddl"
    domain_file.write_text(corpus_text("splisus.pddl"), encoding="utf-8")
    out = tmp_path / "out"
    # Files of other bases do not count, whatever their revision: also a
    # base that starts with this one and an underscore.
    for directory, name in [("domains", "other_7.pddl"),
                            ("dot", "splisus2_8.dot"),
                            ("dot", "splisus_b_8.dot"),
                            ("diagrams", "x_splisus_9.png")]:
        (out / directory).mkdir(parents=True, exist_ok=True)
        (out / directory / name).write_text("", encoding="utf-8")
    revisions = []
    for _ in range(3):
        artifacts, diagnostics = render_diagram(domain_file, out, renderer=None)
        revisions.append(artifacts.revision)
        assert artifacts.dot_path.is_file()
        assert artifacts.copied_domain_path.is_file()
        assert artifacts.image_path is None
        assert any(d.code == "no-renderer" for d in diagnostics)
    assert revisions == [1, 2, 3]
    assert (out / "dot" / "splisus_3.dot").is_file()
    assert (out / "domains" / "splisus_2.pddl").read_text(encoding="utf-8") \
        == corpus_text("splisus.pddl")


def test_render_diagram_with_fake_renderer(tmp_path):
    renderer = tmp_path / "fake-dot"
    renderer.write_text("#!/bin/sh\n"
                        'out=""\n'
                        'while [ $# -gt 0 ]; do\n'
                        '  if [ "$1" = "-o" ]; then out="$2"; shift; fi\n'
                        "  shift\n"
                        "done\n"
                        'printf "PNG" > "$out"\n', encoding="utf-8")
    renderer.chmod(renderer.stat().st_mode | stat.S_IEXEC)
    domain_file = tmp_path / "d.pddl"
    domain_file.write_text("(define (domain d) (:types a - object))",
                           encoding="utf-8")
    artifacts, _ = render_diagram(domain_file, tmp_path / "out",
                                  renderer=str(renderer))
    assert artifacts.image_path is not None
    assert artifacts.image_path.read_bytes() == b"PNG"


def test_render_diagram_failing_renderer(tmp_path):
    renderer = tmp_path / "bad-dot"
    renderer.write_text("#!/bin/sh\necho boom >&2\nexit 3\n", encoding="utf-8")
    renderer.chmod(renderer.stat().st_mode | stat.S_IEXEC)
    domain_file = tmp_path / "d.pddl"
    domain_file.write_text("(define (domain d))", encoding="utf-8")
    with pytest.raises(RenderError, match="boom"):
        render_diagram(domain_file, tmp_path / "out", renderer=str(renderer))


def model_and_graph_findings(text):
    """The model's diagnostics and the type graph's, each as (code,
    message, the source text at its span) rows."""
    domain, model_diagnostics = parse_domain(text)
    _, graph_diagnostics = build_type_graph(domain)
    return [[(d.code, d.message, text[d.span.start:d.span.end])
             for d in diagnostics]
            for diagnostics in (model_diagnostics, graph_diagnostics)]


def test_only_an_either_parent_is_an_either_type():
    text = "(define (domain d) (:types a - ?y b - (foo) c - (either x y)))"
    assert model_and_graph_findings(text) == [[
        ("bad-type", "'?y' in type position is not a type name", "?y"),
        ("bad-type", "compound type '(foo)' in type position", "(foo)"),
        ("either-type", "compound type '(either x y)' in type position",
         "(either x y)")], []]


def test_one_placement_warning_per_non_name_parent_naming_every_entry():
    text = ("(define (domain d) (:types a b - (either x y) c - ?z"
            " e - (either x y)))")
    assert model_and_graph_findings(text) == [[
        ("either-type", "compound type '(either x y)' in type position",
         "(either x y)"),
        ("bad-type", "'?z' in type position is not a type name", "?z"),
        ("either-type", "compound type '(either x y)' in type position",
         "(either x y)")], []]


def test_diagram_warns_once_at_the_compound_parent_in_coffee(tmp_path):
    domain_file = tmp_path / "coffee.pddl"
    domain_file.write_text(corpus_text("coffee.pddl"), encoding="utf-8")
    result = CliRunner().invoke(main, ["diagram", str(domain_file),
                                       "--no-render", "--out",
                                       str(tmp_path / "out")])
    assert [line.split(": ", 1)[1] for line in result.stderr.splitlines()
            if ":8:35:" in line] == [
        "warning: compound type '(at ?l - location)' in type position "
        "[bad-type]"]


def test_diagram_warns_once_at_an_either_parent(tmp_path):
    domain_file = tmp_path / "either.pddl"
    domain_file.write_text("(define (domain d) (:types a - (either b c)))",
                           encoding="utf-8")
    result = CliRunner().invoke(main, ["diagram", str(domain_file),
                                       "--no-render", "--out",
                                       str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert result.stderr.splitlines()[1:] == [
        f"{domain_file}:1:32: warning: compound type '(either b c)' in type "
        "position [either-type]"]


GRAPH_CODES = {"multi-parent", "undeclared-type", "type-cycle", "orphan-type"}


_TYPES = st.sampled_from(["a", "b", "object", "?y", "12", "(either a b)",
                         "(foo)"])


@given(st.lists(st.tuples(st.lists(st.sampled_from(["a", "b"]), min_size=1,
                                   max_size=2), _TYPES), max_size=5))
@settings(max_examples=300)
def test_the_type_graph_reports_only_graph_facts(declarations):
    types = " ".join(f"{' '.join(names)} - {parent}"
                     for names, parent in declarations)
    domain, model_diagnostics = parse_domain(
        f"(define (domain d) (:types {types}))")
    graph, diagnostics = build_type_graph(domain)
    assert {d.code for d in diagnostics} <= GRAPH_CODES
    judged = {d.span for d in model_diagnostics
              if d.code in ("bad-type", "either-type")}
    assert judged == {e.type_span for e in domain.types.entries
                      if e.type_name not in ("a", "b", "object")}
    assert graph.nodes <= {"object", "a", "b"}
