"""Lossless reader/writer tests: round-trips, recovery, block lookup."""

import gc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mypddl import sexpr
from mypddl.sexpr import (
    NodeKind,
    Severity,
    SExprNode,
    Span,
    find_blocks,
    gc_paused,
    offset_to_line_col,
    parse_sexpr,
    serialize,
    serialize_node,
)

from conftest import benchmark_inputs, corpus_text


def test_parse_goal_block():
    forest, diagnostics = parse_sexpr("(:goal (exploited magicfailureapp))")
    assert diagnostics == []
    lists = [n for n in forest if n.kind is NodeKind.LIST]
    assert len(lists) == 1
    head = lists[0].head()
    assert head.text == ":goal"
    inner = [n for n in lists[0].values()[1:] if n.kind is NodeKind.LIST]
    assert len(inner) == 1
    assert inner[0].head().text == "exploited"


def test_parse_empty_input():
    forest, diagnostics = parse_sexpr("")
    assert forest == []
    assert diagnostics == []


def test_unclosed_lists_recover_with_two_errors():
    forest, diagnostics = parse_sexpr("(a (b")
    assert len([n for n in forest if not n.is_trivia]) == 1
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    assert len(errors) == 2
    assert all(d.code == "unclosed-list" for d in errors)
    assert serialize(forest) == "(a (b"


def test_stray_closer_becomes_atom():
    forest, diagnostics = parse_sexpr("a) b")
    assert [d.code for d in diagnostics] == ["stray-closer"]
    atoms = [n for n in forest if n.kind is NodeKind.ATOM]
    assert [a.text for a in atoms] == ["a", ")", "b"]
    assert serialize(forest) == "a) b"


def test_comment_runs_to_end_of_line():
    forest, _ = parse_sexpr("; hello\n(a)")
    assert forest[0].kind is NodeKind.COMMENT
    assert forest[0].text == "; hello"
    assert forest[1].kind is NodeKind.LIST
    assert forest[1].lead == "\n"


def test_atom_material_keeps_pddl_oddities():
    forest, _ = parse_sexpr("??veh = true ?x :kw - 2.5")
    atoms = [n.text for n in forest if n.kind is NodeKind.ATOM]
    assert atoms == ["??veh", "=", "true", "?x", ":kw", "-", "2.5"]


@pytest.mark.parametrize("name", [
    "splisus.pddl", "store.pddl", "logistics.pddl", "coffee.pddl",
])
def test_corpus_round_trip(name):
    text = corpus_text(name)
    forest, _ = parse_sexpr(text)
    assert serialize(forest) == text


@given(st.text())
@settings(max_examples=300)
def test_round_trip_any_text(text):
    forest, _ = parse_sexpr(text)
    assert serialize(forest) == text


@given(st.text(alphabet="()a ;\n?", max_size=60))
@settings(max_examples=300)
def test_round_trip_paren_heavy(text):
    forest, _ = parse_sexpr(text)
    assert serialize(forest) == text


_WHITESPACE = set(" \t\r\n\f\v")


def _check_tiling(nodes, start, end, data):
    """The leads and spans of ``nodes``, and then ``end - start`` bytes of
    whitespace, tile data[start:end]; each list's children, its tail and
    its parens tile its span, and a leaf's span holds its text."""
    for node in nodes:
        assert set(node.lead) <= _WHITESPACE and set(node.tail) <= _WHITESPACE
        assert data[start:node.span.start] == node.lead.encode("utf-8")
        start = node.span.end
        if node.kind is NodeKind.LIST:
            close = node.span.end - 1 if node.closed else node.span.end
            _check_tiling(node.children, node.span.start + 1,
                          close - len(node.tail), data)
            assert data[close - len(node.tail):close] == node.tail.encode()
            assert data[node.span.start:node.span.start + 1] == b"("
            assert data[close:node.span.end] == (b")" if node.closed else b"")
        else:
            assert not node.tail
            assert data[node.span.start:start] == node.text.encode("utf-8")
    assert start == end


@given(st.text(alphabet="()ab ;:?-\n", max_size=80))
@settings(max_examples=300)
def test_span_tiling(text):
    data = text.encode("utf-8")
    forest, _ = parse_sexpr(text)
    _check_tiling(forest, 0, len(data), data)


@given(st.text())
@settings(max_examples=300)
def test_whitespace_is_leading_trivia(text):
    """Leads, spans and tails tile any text; the only whitespace nodes are
    a byte order mark at offset 0 and the whitespace after the last
    top-level node."""
    data = text.encode("utf-8")
    forest, _ = parse_sexpr(text)
    _check_tiling(forest, 0, len(data), data)
    for k, top in enumerate(forest):
        if top.kind is NodeKind.WHITESPACE:
            assert top.text == "\ufeff" and top.span.start == 0 \
                or set(top.text) <= _WHITESPACE and k == len(forest) - 1
        for node in list(top.walk())[1:]:
            assert node.kind is not NodeKind.WHITESPACE


def test_whitespace_makes_no_nodes_on_a_large_problem():
    text = benchmark_inputs("large-problem", 1).problem.text.decode("utf-8")
    forest, _ = parse_sexpr(text)
    assert sum(1 for top in forest for _ in top.walk()) <= 18_300
    assert serialize(forest) == text


# Pieces of text that exercise byte offsets: multi-byte characters (two,
# three and four bytes in UTF-8), CRLF, a no-break space, which is atom
# text, comments, and parentheses that may be stray or never closed.
_OFFSET_PIECES = ["(", "(", ")", ")", "a", "?x", "é", "漢", "😀", "\u00a0",
                  " ", "\t", "\n", "\r\n", "; c", ";é\n"]


@given(st.booleans(),
       st.lists(st.sampled_from(_OFFSET_PIECES), max_size=40).map("".join),
       st.integers(0, 300))
@example(True, "(a é) ) (b\r\n ;x", 7)
@settings(max_examples=300)
def test_every_node_holds_its_byte_offsets(bom, body, offset):
    """Parsed at ``offset`` of a file, each node's ``start`` and ``end``
    give its ``span`` and bracket exactly the bytes it serializes to."""
    text = ("\ufeff" if bom else "") + body
    data = b"x" * offset + text.encode("utf-8")
    forest, _ = parse_sexpr(text, offset)
    for node in (node for top in forest for node in top.walk()):
        assert node.span == Span(node.start, node.end)
        assert data[node.start:node.end].decode("utf-8") \
            == serialize_node(node)


def test_a_node_built_in_code_has_no_offsets():
    node = SExprNode(NodeKind.ATOM, "x")
    assert (node.start, node.end, node.span) == (None, None, None)
    placed = SExprNode(NodeKind.ATOM, "x", (), Span(3, 4))
    assert (placed.start, placed.end, placed.span) == (3, 4, Span(3, 4))


def test_span_make_builds_a_span_of_any_length():
    # namedtuple's own ``_make`` would compare len(), a span's length, to 2.
    span = Span._make((3, 9))
    assert span == Span(3, 9) and type(span) is Span


def test_the_node_layout_is_pinned():
    # Hot loops index nodes by these constants and unpack them whole, so a
    # reordered field must fail here rather than be misread there.
    assert SExprNode._fields == ("kind", "text", "children", "start", "end",
                                 "closed", "is_trivia", "lead", "tail")
    assert [getattr(sexpr, field.upper()) for field in SExprNode._fields] \
        == list(range(len(SExprNode._fields)))


def test_a_node_prints_its_span_as_it_always_has():
    assert repr(parse_sexpr(" (a)")[0][0]) == (
        "SExprNode(kind=<NodeKind.LIST: 'list'>, text='', children=("
        "SExprNode(kind=<NodeKind.ATOM: 'atom'>, text='a', children=(), "
        "span=Span(start=2, end=3), closed=True, is_trivia=False, lead='', "
        "tail=''),), span=Span(start=1, end=4), closed=True, "
        "is_trivia=False, lead=' ', tail='')")
    assert repr(SExprNode(NodeKind.ATOM, "x")) == (
        "SExprNode(kind=<NodeKind.ATOM: 'atom'>, text='x', children=(), "
        "span=None, closed=True, is_trivia=False, lead='', tail='')")


def test_a_parse_allocates_no_span():
    """Nodes hold their offsets as ints; a ``Span`` is built only when a
    node's ``span`` is read, so a clean parse leaves none behind."""
    text = benchmark_inputs("large-problem", 1).problem.text.decode("utf-8")

    def live_spans() -> int:
        return sum(1 for obj in gc.get_objects() if type(obj) is Span)

    before = live_spans()
    forest, diagnostics = parse_sexpr(text)
    assert live_spans() - before == 0
    assert diagnostics == [] and serialize(forest) == text


def test_find_blocks_goal(gary_problem):
    text = gary_problem.read_text(encoding="utf-8")
    forest, _ = parse_sexpr(text)
    blocks = find_blocks(forest, ":goal")
    assert len(blocks) == 1
    assert serialize_node(blocks[0]) == "(:goal (exploited magicfailureapp))"


def test_find_blocks_no_match(splisus_text):
    forest, _ = parse_sexpr(splisus_text)
    assert find_blocks(forest, ":nonexistent") == []


def test_find_blocks_store_action(store_text):
    forest, _ = parse_sexpr(store_text)
    blocks = find_blocks(forest, ":action")
    assert len(blocks) == 1
    values = blocks[0].values()
    assert values[1].text == "sell"


def test_find_blocks_is_case_insensitive():
    forest, _ = parse_sexpr("(:GOAL (a)) (:goal (b))")
    assert len(find_blocks(forest, ":goal")) == 2


def test_find_blocks_document_order_with_nesting():
    forest, _ = parse_sexpr("(:x (inner (:x 1)) trailing) (:x 2)")
    blocks = find_blocks(forest, ":x")
    starts = [b.span.start for b in blocks]
    assert starts == sorted(starts)
    assert len(blocks) == 3


def _walk_blocks(forest, keyword):
    """The reference: every node in document order, the head being the
    first child that is not trivia."""
    return [node for top in forest for node in top.walk()
            if node.kind is NodeKind.LIST and node.head() is not None
            and node.head().kind is NodeKind.ATOM
            and node.head().text.lower() == keyword.lower()]


@pytest.mark.parametrize("name", [
    "splisus.pddl", "store.pddl", "logistics.pddl", "coffee.pddl",
    "garys_huge_problem.pddl", "gary_pizza_problem.pddl",
])
@pytest.mark.parametrize("keyword", [":init", ":goal", ":action", ":INIT",
                                     "and", ":nonexistent"])
def test_find_blocks_on_the_corpus_finds_what_a_walk_of_every_node_finds(
        name, keyword):
    forest, _ = parse_sexpr(corpus_text(name))
    assert find_blocks(forest, keyword) == _walk_blocks(forest, keyword)


@given(st.text(alphabet="() ;:xX\n", max_size=80))
@example("( ;c\n:x (:X)) (;\n(:x ;\n))")
@settings(max_examples=300)
def test_find_blocks_finds_what_a_walk_of_every_node_finds(text):
    forest, _ = parse_sexpr(text)
    assert find_blocks(forest, ":X") == _walk_blocks(forest, ":x")


@pytest.mark.parametrize("text", [
    "(" * 5000,
    "(" * 3000 + "x" + ")" * 3000,
    "(and " * 2000 + "(p ?x)" + ")" * 2000,
])
def test_pathological_nesting_round_trips(text):
    forest, _ = parse_sexpr(text)
    assert serialize(forest) == text
    assert find_blocks(forest, ":goal") == []


def test_offset_to_line_col_counts_bytes():
    data = "ab\ncäd\nx".encode("utf-8")
    assert offset_to_line_col(data, 0) == (1, 1)
    assert offset_to_line_col(data, 3) == (2, 1)
    # ä is two bytes, so 'd' sits at byte column 4
    assert offset_to_line_col(data, 6) == (2, 4)


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_previous_state(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_gc_paused_restores_the_state_when_the_body_raises():
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("body failed")
    assert gc.isenabled()
