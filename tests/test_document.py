"""One `Document` per file: byte-exact reads and writes, strict decoding,
one line index per file, at most one lexing per input file for every
command, and no tree on the token path."""

import copy
import gc
import json
import pickle
import random
import re

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mypddl import model as pddl_model
from mypddl import sexpr, typegraph
from mypddl.cli import main
from mypddl.construct import insert_construct, parse_constructs
from mypddl.distance import augment_with_distances
from mypddl.highlight import scope_columns, tokenize
from mypddl.model import parse_domain, parse_problem
from mypddl.sexpr import (
    Document,
    MyPddlError,
    NodeKind,
    SExprNode,
    Span,
    as_document,
    offset_to_line_col,
    serialize,
)

from conftest import CORPUS, FIXTURES, benchmark_inputs

CRLF_PROBLEM = (b"; a problem with CRLF line endings\r\n"
                b"(define (problem p)\r\n"
                b"  (:domain d)\r\n"
                b"  (:init\r\n"
                b"    (location a 0 0)\r\n"
                b"    (location b 3 4))\r\n"
                b"  (:goal (g)))\r\n")
CRLF_INIT_CLOSE = CRLF_PROBLEM.index(b"(location b 3 4))") \
    + len(b"(location b 3 4)")

LATIN1_DOMAIN = (b"; caf\xe9 -- this comment is Latin-1, not UTF-8\n"
                 b"(define (domain latin)\n"
                 b"  (:requirements :strips))\n")


@pytest.fixture
def runner():
    return CliRunner()


def line_col(data: bytes, offset: int) -> tuple[int, int]:
    """Reference position: newlines counted in the raw bytes."""
    return (data.count(b"\n", 0, offset) + 1,
            offset - (data.rfind(b"\n", 0, offset) + 1) + 1)


def added_at(before: bytes, after: bytes, at: int) -> bytes:
    """The bytes ``after`` adds at offset ``at``; all others must be equal."""
    tail = len(before) - at
    assert after[:at] == before[:at]
    assert after[len(after) - tail:] == before[at:]
    return after[at:len(after) - tail]


# -- nodes and spans ----------------------------------------------------------

def test_span_keeps_its_contract():
    span = Span(2, 5)
    assert (span.start, span.end, len(span)) == (2, 5, 3)
    assert span == Span(2, 5) and hash(span) == hash(Span(2, 5))
    assert span != Span(2, 6)
    assert span.overlaps(Span(4, 9)) and not span.overlaps(Span(5, 9))
    with pytest.raises(ValueError):
        Span(5, 2)
    with pytest.raises(ValueError):
        Span(-1, 2)
    with pytest.raises(AttributeError):
        span.start = 0


def test_node_trivia_is_fixed_at_construction():
    assert SExprNode(NodeKind.COMMENT, "; c").is_trivia
    assert SExprNode(NodeKind.WHITESPACE, " ").is_trivia
    assert not SExprNode(NodeKind.ATOM, "a").is_trivia
    assert not SExprNode(NodeKind.LIST).is_trivia


_FOREST_TEXT = ("; header\n(define (problem p) (:init (at a b)\n"
                "  (= (cost) 2.5) ) ; trailing\n(:goal (and (p ?x  ")


def _node_fields(nodes):
    """Every node's fields, children replaced by their own fields."""
    return [(n.kind, n.text, _node_fields(n.children), n.span, n.closed,
             n.is_trivia, n.lead, n.tail) for n in nodes]


@pytest.mark.parametrize("round_trip", [
    lambda forest: pickle.loads(pickle.dumps(forest)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
def test_a_parsed_forest_survives_pickle_and_deepcopy(round_trip):
    forest = as_document(_FOREST_TEXT).forest
    assert any(not n.closed for n in forest[-1].walk())
    nodes = [n for top in forest for n in top.walk()]
    assert any(n.lead for n in nodes) and any(n.tail for n in nodes)
    assert any(not n.closed and n.tail for n in nodes)
    copied = round_trip(forest)
    assert serialize(copied) == serialize(forest) == _FOREST_TEXT
    assert _node_fields(copied) == _node_fields(forest)
    assert all(type(n) is SExprNode for top in copied for n in top.walk())


def test_a_forest_deep_copies_at_any_depth():
    """A node is immutable, so a copy of it is the node itself, and a copy
    of a forest needs no recursion into it."""
    depth = 100_000
    text = "(a " * depth + ")" * depth
    forest = as_document(text).forest
    copied = copy.deepcopy(forest)
    assert copied is not forest and copied[0] is forest[0]
    assert copy.copy(forest[0]) is forest[0]
    assert serialize(copied) == text


def test_nodes_compare_and_hash_by_identity():
    a = SExprNode(NodeKind.ATOM, "x", (), Span(0, 1))
    b = SExprNode(NodeKind.ATOM, "x", (), Span(0, 1))
    assert a != b and not a == b
    assert a == a and not a != a
    assert hash(a) != hash(b)
    assert len({a, b}) == 2


def test_nodes_are_immutable():
    node = SExprNode(NodeKind.ATOM, "x", (), Span(0, 1))
    with pytest.raises(AttributeError):
        node.text = "y"


def test_parsed_nodes_match_the_constructor():
    for top in as_document(_FOREST_TEXT).forest:
        for node in top.walk():
            made = SExprNode(node.kind, node.text, node.children, node.span,
                             node.closed, node.lead, node.tail)
            assert tuple(made) == tuple(node)
    made = SExprNode(NodeKind.ATOM, "x", (), Span(0, 1), True)
    assert (made.lead, made.tail) == ("", "")


def test_node_kinds_keep_their_enum_semantics():
    assert len(set(NodeKind)) == 4
    assert NodeKind("atom") is NodeKind.ATOM
    for kind in NodeKind:
        assert pickle.loads(pickle.dumps(kind)) is kind
        assert copy.deepcopy(kind) is kind
    assert {NodeKind.LIST: 1}.get(NodeKind("list")) == 1


# -- the document ---------------------------------------------------------------

def test_document_keeps_bytes_text_forest_and_diagnostics(tmp_path):
    path = tmp_path / "p.pddl"
    path.write_bytes(CRLF_PROBLEM + b")")
    doc = Document.read(path)
    assert doc.path == path
    assert doc.data == CRLF_PROBLEM + b")"
    assert doc.text.encode("utf-8") == doc.data
    assert sexpr.serialize(doc.forest) == doc.text
    assert [d.code for d in doc.diagnostics] == ["stray-closer"]


def test_invalid_utf8_names_file_and_byte(tmp_path):
    path = tmp_path / "latin.pddl"
    path.write_bytes(LATIN1_DOMAIN)
    with pytest.raises(MyPddlError, match=r"latin\.pddl: .* at byte 5\b"):
        Document.read(path)


@given(st.binary(max_size=300))
@settings(max_examples=200)
def test_line_index_matches_newline_count(data):
    text = data.decode("utf-8", errors="replace")
    doc = as_document(text)
    for offset in range(0, len(doc.data) + 1, 7):
        expected = line_col(doc.data, offset)
        assert doc.line_col(offset) == expected
        assert offset_to_line_col(doc.data, offset) == expected


# -- byte-exact I/O -----------------------------------------------------------------

def test_insert_keeps_crlf_bytes(runner, tmp_path):
    path = tmp_path / "p.pddl"
    path.write_bytes(CRLF_PROBLEM)
    result = runner.invoke(main, ["insert", str(path), ":init", "(hungry a)"])
    assert result.exit_code == 0, result.output
    added = added_at(CRLF_PROBLEM, path.read_bytes(), CRLF_INIT_CLOSE)
    assert added.strip() == b"(hungry a)" and added[:1].isspace()


def test_insert_stdout_keeps_crlf_bytes(runner, tmp_path):
    path = tmp_path / "p.pddl"
    path.write_bytes(CRLF_PROBLEM)
    result = runner.invoke(main, ["insert", str(path), ":init", "(hungry a)",
                                  "--stdout"])
    assert result.exit_code == 0, result.output
    added = added_at(CRLF_PROBLEM, result.stdout_bytes, CRLF_INIT_CLOSE)
    assert added.strip() == b"(hungry a)"
    assert path.read_bytes() == CRLF_PROBLEM


def test_distance_keeps_crlf_bytes(runner, tmp_path):
    path, out = tmp_path / "p.pddl", tmp_path / "out.pddl"
    path.write_bytes(CRLF_PROBLEM)
    result = runner.invoke(main, ["distance", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    added = added_at(CRLF_PROBLEM, out.read_bytes(), CRLF_INIT_CLOSE)
    assert added.split() == [b"(distance", b"a", b"a", b"0.0)",
                             b"(distance", b"a", b"b", b"5.0)",
                             b"(distance", b"b", b"a", b"5.0)",
                             b"(distance", b"b", b"b", b"0.0)"]
    assert path.read_bytes() == CRLF_PROBLEM


@st.composite
def _init_rows(draw):
    """An LF problem whose :init holds rows of facts, each row on its own
    line at its own indent, with the column of the last fact."""
    facts = draw(st.lists(st.sampled_from([
        "(hungry a)", "(location a 0 0)", "(location b 3 4)",
        "(location c 1 1)"]), min_size=1, max_size=4, unique=True))
    lines, row = [], []
    for k, fact in enumerate(facts, 1):
        row.append(fact)
        if k == len(facts) or draw(st.booleans()):
            lines.append(" " * draw(st.integers(0, 8)) + " ".join(row))
            row = []
    text = ("(define (problem p)\n  (:domain d)\n  (:init\n"
            + "\n".join(lines) + ")\n  (:goal (g)))\n")
    return text.encode("utf-8"), len(lines[-1]) - len(facts[-1])


@given(_init_rows())
@settings(max_examples=200)
def test_added_lines_take_the_line_ending_of_the_block(problem):
    lf, column = problem
    at = lf.index(b")\n  (:goal")
    out = insert_construct(Document(lf), ":init",
                           parse_constructs("(hungry z)")).encode("utf-8")
    assert added_at(lf, out, at) == b"\n" + b" " * column + b"(hungry z)"
    crlf = lf.replace(b"\n", b"\r\n")
    crlf_out = insert_construct(Document(crlf), ":init",
                                parse_constructs("(hungry z)"))
    assert crlf_out.encode("utf-8") == out.replace(b"\n", b"\r\n")
    lf_text, _ = augment_with_distances(Document(lf))
    crlf_text, _ = augment_with_distances(Document(crlf))
    assert crlf_text == lf_text.replace("\n", "\r\n")


def test_check_json_positions_are_file_bytes(runner, tmp_path):
    data = CRLF_PROBLEM.replace(b"(:domain d)", b"(:domian d)") \
        .replace(b"(:goal (g))", b"(:goal (g)) ?stray")
    path = tmp_path / "p.pddl"
    path.write_bytes(data)
    result = runner.invoke(main, ["--json", "check", str(path)])
    assert result.exit_code == 1
    regions = json.loads(result.stdout)[0]["invalid_regions"]
    assert [r["text"] for r in regions] == [":domian", "?stray"]
    for region in regions:
        start, end = region["start"], region["end"]
        assert data[start:end].decode("utf-8") == region["text"]
        assert (region["line"], region["col"]) == line_col(data, start)


def test_check_json_positions_of_many_regions(runner, tmp_path):
    actions = "".join(
        f"  (:action a{k}\r\n    :parameters (?x)\r\n"
        f"    :precondtion (p ?x)\r\n    :effect (q ?x))\r\n"
        for k in range(120))
    data = ("(define (domain many)\r\n" + actions + ")\r\n").encode("utf-8")
    path = tmp_path / "many.pddl"
    path.write_bytes(data)
    result = runner.invoke(main, ["--json", "check", str(path)])
    assert result.exit_code == 1
    regions = json.loads(result.stdout)[0]["invalid_regions"]
    assert len(regions) >= 120
    for region in regions:
        assert (region["line"], region["col"]) == \
            line_col(data, region["start"])


# -- strict decoding ----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["check", "{f}"],
    ["--json", "check", "{f}"],
    ["tokens", "{f}"],
    ["tokens", "{f}", "--format", "html"],
    ["extract", "{f}", ":requirements"],
    ["insert", "{f}", ":requirements", ":typing"],
    ["insert", "{f}", ":requirements", ":typing", "--stdout"],
    ["distance", "{f}"],
    ["diagram", "{f}", "--out", "{out}", "--no-render"],
])
def test_latin1_input_is_one_line_exit_1(runner, tmp_path, argv):
    path = tmp_path / "latin.pddl"
    path.write_bytes(LATIN1_DOMAIN)
    argv = [a.format(f=path, out=tmp_path / "out") for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert str(path) in lines[0] and "byte 5" in lines[0]
    assert path.read_bytes() == LATIN1_DOMAIN


# -- a leading byte order mark ----------------------------------------------------

BOM = b"\xef\xbb\xbf"
BOM_DOMAIN = BOM + b"(define (domain d))"
BOM_PROBLEM = BOM + CRLF_PROBLEM


def test_check_accepts_leading_bom(runner, tmp_path):
    path = tmp_path / "d.pddl"
    path.write_bytes(BOM_DOMAIN)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0, result.output
    assert f"{path}: 0 errors, 0 invalid regions" in result.stdout


def test_tokens_scope_leading_bom_as_whitespace(runner, tmp_path):
    path = tmp_path / "d.pddl"
    path.write_bytes(BOM_DOMAIN)
    result = runner.invoke(main, ["tokens", str(path), "--fail-on-invalid"])
    assert result.exit_code == 0, result.output
    records = json.loads(result.stdout)
    assert records[0]["text"] == "\ufeff"
    assert records[0]["scope"] == "Punctuation"
    pos = 0
    for record in records:
        assert record["start"] == pos
        pos = record["end"]
    assert pos == len(BOM_DOMAIN)


def test_bom_is_whitespace_only_at_offset_0():
    forest = as_document("(a)\ufeff").forest
    assert [n.kind for n in forest] == [NodeKind.LIST, NodeKind.ATOM]
    assert as_document("\ufeff\ufeff(a)").forest[0].kind \
        is NodeKind.WHITESPACE


def test_insert_keeps_bom_bytes(runner, tmp_path):
    path = tmp_path / "p.pddl"
    path.write_bytes(BOM_PROBLEM)
    result = runner.invoke(main, ["insert", str(path), ":init", "(hungry a)"])
    assert result.exit_code == 0, result.output
    added = added_at(BOM_PROBLEM, path.read_bytes(),
                     len(BOM) + CRLF_INIT_CLOSE)
    assert added.strip() == b"(hungry a)"


def test_distance_keeps_bom_bytes(runner, tmp_path):
    path, out = tmp_path / "p.pddl", tmp_path / "out.pddl"
    path.write_bytes(BOM_PROBLEM)
    result = runner.invoke(main, ["distance", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    added = added_at(BOM_PROBLEM, out.read_bytes(), len(BOM) + CRLF_INIT_CLOSE)
    assert b"(distance a b 5.0)" in added


# -- a directory as FILE ------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["check", "{d}"],
    ["tokens", "{d}"],
    ["extract", "{d}", ":init"],
    ["insert", "{d}", ":init", "(a)"],
    ["distance", "{d}"],
    ["distance", "{f}", "--out", "{d}"],
    ["diagram", "{d}", "--out", "{out}", "--no-render"],
])
def test_directory_as_file_is_usage_error(runner, tmp_path, argv):
    problem = tmp_path / "p.pddl"
    problem.write_bytes(CRLF_PROBLEM)
    argv = [a.format(d=tmp_path, f=problem, out=tmp_path / "out")
            for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is a directory" in result.stderr
    assert "Traceback" not in result.output


@pytest.mark.parametrize("argv", [
    ["diagram", "{domain}", "--out", "{plain}", "--no-render"],
    ["new", "proj", "--dir", "{plain}"],
])
def test_plain_file_as_output_directory_is_usage_error(runner, tmp_path, argv):
    domain = tmp_path / "d.pddl"
    domain.write_bytes(BOM_DOMAIN)
    plain = tmp_path / "plainfile"
    plain.write_bytes(b"")
    argv = [a.format(domain=domain, plain=plain) for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "is a file" in result.stderr
    assert plain.read_bytes() == b""


@pytest.mark.parametrize("argv", [
    ["diagram", "{domain}", "--out", "{below}", "--no-render"],
    ["new", "proj", "--dir", "{below}"],
])
def test_output_directory_below_a_plain_file_is_one_line_exit_1(
        runner, tmp_path, argv):
    domain = tmp_path / "d.pddl"
    domain.write_bytes(BOM_DOMAIN)
    plain = tmp_path / "plainfile"
    plain.write_bytes(b"")
    below = plain / "x"
    argv = [a.format(domain=domain, below=below) for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"Error: cannot create directory {below}")
    assert result.stderr.count("\n") == 1
    assert plain.read_bytes() == b""


@pytest.mark.parametrize("parent", ["plainfile", "missing"])
def test_distance_out_below_a_plain_file_or_missing_directory_is_exit_1(
        runner, tmp_path, parent):
    problem = tmp_path / "p.pddl"
    problem.write_bytes(CRLF_PROBLEM)
    (tmp_path / "plainfile").write_bytes(b"")
    out = tmp_path / parent / "out.pddl"
    result = runner.invoke(main, ["distance", str(problem), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"Error: cannot write {out}: ")
    assert result.stderr.count("\n") == 1


_PDDL_BYTES = st.lists(st.sampled_from([
    b"(", b")", b" ", b"\n", b"\r\n", b";", b"a", b"?x", b"-", b"1.5",
    b":init", b":goal", b"define", b"problem", b"\xc3\xa9", b"\xe9", b"\xff",
    b"\xef\xbb\xbf", b"\x00",
]), max_size=40).map(b"".join)


@given(data=st.one_of(st.binary(max_size=200), _PDDL_BYTES))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_bytes_exit_cleanly(tmp_path, data):
    path = tmp_path / "fuzz.pddl"
    runner = CliRunner()
    for argv in (["check", str(path)], ["--json", "check", str(path)],
                 ["tokens", str(path)],
                 ["insert", str(path), ":init", "(a)"]):
        path.write_bytes(data)
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1, 2), (argv, result.output)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), \
            (argv, repr(result.exception))


# -- leaves and tokens against the bytes ---------------------------------------------

_LEXEMES = st.lists(st.one_of(
    st.sampled_from(["(", ")", " ", "\t", "\n", "\r\n", "; caf\u00e9 \u20ac\n",
                     ";\r\n", "?x", ":init", "-", "1.5", "\ufeff"]),
    st.text(st.characters(blacklist_characters=" \t\r\n\f\v();",
                          blacklist_categories=("Cs",)),
            min_size=1, max_size=6),
), max_size=40).map("".join)


@given(text=_LEXEMES, bom=st.booleans())
@settings(max_examples=300)
def test_leaves_and_tokens_match_the_bytes(text, bom):
    if bom:
        text = "\ufeff" + text
    doc = as_document(text)
    for top in doc.forest:
        for node in top.walk():
            if node.kind is not NodeKind.LIST:
                assert doc.data[node.span.start:node.span.end].decode() \
                    == node.text
    pos = 0
    for token in tokenize(doc):
        assert token.span.start == pos
        assert doc.data[pos:token.span.end].decode() == token.text
        pos = token.span.end
    assert pos == len(doc.data)


# -- one lexing per file, and no tree on the token path -------------------------------

@given(text=_LEXEMES, bom=st.booleans())
@settings(max_examples=300)
def test_the_tape_holds_what_the_forest_holds(text, bom):
    """The tape's strings tile the text, its diagnostics are the parse's,
    and the node it builds of each top-level value is the forest's."""
    if bom:
        text = "\ufeff" + text
    tape = sexpr.Tape(text)
    forest, diagnostics = sexpr.parse_sexpr(text)
    assert "".join(tape.texts) == text and tape.pieces[tape.end] == ""
    assert tape.diagnostics == diagnostics
    values, k = [], 0
    while k < tape.end:
        if k or not text.startswith("\ufeff"):  # a byte order mark
            values.append(tape.node(k))
        k = tape.last[k] + 1
    assert _node_fields(values) == _node_fields(
        [n for n in forest if n.kind is not NodeKind.WHITESPACE])


# A lexeme of the bytes: a comment, a parenthesis or an atom.
_BYTE_LEXEME = re.compile(rb";[^\n]*|[()]|[^ \t\r\n\f\v();]+")


def _byte_spans(data: bytes) -> tuple[list[tuple[int, int]], set[int]]:
    """The byte span of the value at each lexeme but the end, found from
    the bytes alone, and the lexemes that are ')' closing a list: a leading
    byte order mark is a lexeme, and a '(' runs to its ')', or to the end
    of the data if it has none."""
    bom = 3 if data.startswith(b"\xef\xbb\xbf") else 0
    spans, opens, closers = [(0, bom)] if bom else [], [], set()
    for match in _BYTE_LEXEME.finditer(data, bom):
        if match.group() == b"(":
            opens.append(len(spans))
        elif match.group() == b")" and opens:
            opened = opens.pop()
            spans[opened] = (spans[opened][0], match.end())
            closers.add(len(spans))
        spans.append(match.span())
    for opened in opens:
        spans[opened] = (spans[opened][0], len(data))
    return spans, closers


@given(text=st.lists(_LEXEMES, max_size=8).map("".join), bom=st.booleans(),
       order=st.randoms())
@example(text="(d ; \u00e9\r\n" + "(caf\u00e9 ?x) " * 40 + ")) (\u20ac",
         bom=True, order=random.Random(0))
@settings(max_examples=200, deadline=None)
def test_byte_spans_are_exact_in_any_order(text, bom, order):
    """The span of the value at every lexeme, and the offsets of every node
    of the node built there, are the byte offsets that a scan of the bytes
    finds, whether they are asked for in order, in reverse or shuffled: each
    order asks a new tape, whose offset index its first request builds."""
    if bom:
        text = "\ufeff" + text
    doc = as_document(text)
    spans, closers = _byte_spans(doc.data)
    lexemes = list(range(len(spans)))
    shuffled = order.sample(lexemes, len(lexemes))
    for asked in (lexemes, lexemes[::-1], shuffled):
        tape = sexpr.Tape(doc.text)
        assert tape.end == len(spans)
        for k in asked:
            assert tape.span(k) == spans[k]
            last = min(tape.last[k], tape.end - 1)
            assert [(node.start, node.end) for node in tape.node(k).walk()] \
                == [spans[j] for j in range(k, last + 1)
                    if j == k or j not in closers]


@pytest.mark.parametrize("text", ["(a b)", "(caf\u00e9 \u20ac)"])
def test_a_read_tape_pickles(text):
    """A tape whose offsets were read, of ASCII or other text, pickles
    with its document, and the copy gives the same spans."""
    doc = as_document(text)
    spans = [doc.tape.span(k) for k in range(doc.tape.end)]
    copy = pickle.loads(pickle.dumps(doc))
    assert [copy.tape.span(k) for k in range(copy.tape.end)] == spans


def _live_nodes() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is SExprNode)


def test_the_token_path_builds_no_forest(runner, tmp_path, monkeypatch):
    """``scope_columns``, ``check`` and ``tokens`` read the tape: no node is
    built, so none is alive after them, and the document's forest is never
    parsed."""
    data = benchmark_inputs("large-problem", 1).problem.text
    before = _live_nodes()
    doc = Document(data)
    columns = scope_columns(doc)
    assert doc.diagnostics == []
    assert _live_nodes() - before == 0 and doc._parsed is None
    assert "".join(columns.texts).encode("utf-8") == data
    built = []
    monkeypatch.setattr(sexpr, "_forest", lambda *args: built.append(args))
    path = tmp_path / "p.pddl"
    path.write_bytes(data)
    for argv in (["check", str(path)], ["--json", "check", str(path)],
                 ["tokens", str(path)],
                 ["tokens", str(path), "--format", "html"]):
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
    assert built == [] and _live_nodes() - before == 0


def test_the_diagnostics_of_a_document_build_no_forest():
    text = "(define (domain d)) ) (:predicates (p ?x) (q"
    doc = as_document(text)
    assert [d.code for d in doc.diagnostics] == \
        ["stray-closer", "unclosed-list", "unclosed-list"]
    assert doc._parsed is None
    assert doc.diagnostics == sexpr.parse_sexpr(text)[1]


@pytest.fixture
def lexed(monkeypatch):
    """Texts that a `Tape` lexed whole, and those whose lexemes were passed
    to the node builder (`parse_sexpr` and `Tape.node`)."""
    tapes: list[str] = []
    built: list[str] = []
    tape_init, forest = sexpr.Tape.__init__, sexpr._forest

    def lexing(self, text, *args):
        tapes.append(text)
        tape_init(self, text, *args)

    def building(texts, *args):
        built.append("".join(texts))
        return forest(texts, *args)

    monkeypatch.setattr(sexpr.Tape, "__init__", lexing)
    monkeypatch.setattr(sexpr, "_forest", building)
    return tapes, built


# ``others`` counts the other texts parsed into nodes: a construct, for
# ``extract`` the slice of the block that the index found, and for
# ``distance`` the slice of its run of location facts. ``insert`` parses
# nothing of the file, and ``diagram``, which reads declarations alone, no
# formula.
@pytest.mark.parametrize("argv, files, others", [
    (["check", "{dom}", "{prob}"], 2, 0),
    (["--json", "check", "{dom}", "{prob}"], 2, 0),
    (["tokens", "{prob}"], 1, 0),
    (["tokens", "{prob}", "--format", "html"], 1, 0),
    (["extract", "{prob}", ":goal"], 0, 1),
    (["insert", "{prob}", ":init", "(hungry gisela)"], 0, 1),
    (["insert", "{prob}", ":init", "(hungry gisela)", "--stdout"], 0, 1),
    (["distance", "{prob}"], 0, 1),
    (["diagram", "{dom}", "--out", "{out}", "--no-render"], 1, 0),
])
def test_each_command_lexes_each_file_at_most_once(
        runner, tmp_path, lexed, argv, files, others):
    dom, prob = tmp_path / "store.pddl", tmp_path / "pizza.pddl"
    dom.write_bytes((CORPUS / "store.pddl").read_bytes())
    prob.write_bytes((CORPUS / "gary_pizza_problem.pddl").read_bytes())
    argv = [a.format(dom=dom, prob=prob, out=tmp_path / "out") for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    file_texts = {dom.read_text(encoding="utf-8"),
                  (CORPUS / "gary_pizza_problem.pddl").read_text(
                      encoding="utf-8")}
    tapes, built = lexed
    assert len(tapes) == files and set(tapes) <= file_texts
    assert len(built) == others and not file_texts & set(built)


def _parameter_walks(monkeypatch) -> list[int]:
    """The lexeme of each action's parameters that `model._parameters`
    builds from now on."""
    walked, build = [], pddl_model._parameters

    def counted(walk, k):
        walked.append(k)
        return build(walk, k)

    monkeypatch.setattr(pddl_model, "_parameters", counted)
    return walked


def _entries(typed_list):
    """A typed list's entries as the golden files hold them."""
    return [[e.name, e.type_name, list(e.name_span),
             e.type_span and list(e.type_span)] for e in typed_list.entries]


@pytest.mark.parametrize("name, read, formulas, actions", [
    ("tour_domain.pddl", parse_domain,
     lambda m: [a.effect for a in m.actions + m.durative_actions] + m.derived,
     lambda m: m.actions + m.durative_actions),
    ("tour_problem.pddl", parse_problem, lambda m: [m.goal, m.metric, *m.init],
     lambda m: []),
], ids=["domain", "problem"])
def test_a_model_builds_each_formula_when_it_is_first_read(
        lexed, monkeypatch, name, read, formulas, actions):
    """A read model holds no node: the first read of a formula's field
    builds it from the tape, with the fields of the forest's node there,
    and keeps it. An action's parameters are built the same way, once
    each, by a walk of their typed list, and equal those the golden file
    pins. A model pickles with its formulas and parameters built."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    tapes, built = lexed
    unread = read(text)[0]
    walked = _parameter_walks(monkeypatch)
    model = read(text)[0]
    assert built == [] and walked == []
    nodes = [node for node in formulas(model) if node is not None]
    assert len(nodes) > 2 and built
    del built[:]
    assert [node for node in formulas(model) if node is not None] == nodes
    assert built == []
    forest = {n.start: n for top in sexpr.parse_sexpr(text)[0]
              for n in top.walk()}
    assert _node_fields(nodes) == _node_fields([forest[n.start] for n in nodes])
    parameters = [action.parameters for action in actions(model)]
    assert len(set(walked)) == len(walked) and bool(walked) == bool(parameters)
    once = walked[:]
    assert [action.parameters for action in actions(model)] == parameters
    assert walked == once
    golden = json.loads((FIXTURES / name.replace(".pddl", ".golden.json"))
                        .read_text(encoding="utf-8"))["model"]
    assert [_entries(p) for p in parameters] == [
        [list(e.values()) for e in action["parameters"]["entries"]]
        for action in golden.get("actions", [])
        + golden.get("durative_actions", [])]
    monkeypatch.undo()  # a model pickles the real builder, by its name
    assert repr(pickle.loads(pickle.dumps(unread))) == repr(model)


def test_the_diagram_builds_no_action_parameters(tmp_path, monkeypatch):
    """`render_diagram` reads the types and the predicates alone: on the
    seed-1 broken-domain domain it builds no action's parameters, each of
    which is built when first read."""
    domains, read = [], typegraph.parse_domain

    def kept(doc):
        domain, diagnostics = read(doc)
        domains.append(domain)
        return domain, diagnostics

    monkeypatch.setattr(typegraph, "parse_domain", kept)
    walked = _parameter_walks(monkeypatch)
    domain_file = tmp_path / "domain.pddl"
    domain_file.write_bytes(benchmark_inputs("broken-domain", 1).domain.text)
    typegraph.render_diagram(Document.read(domain_file), tmp_path / "out")
    actions = domains[0].actions
    assert len(actions) == 400 and walked == []
    assert actions[0].parameters.entries and len(walked) == 1


class _CountedStrings(list):
    """A tape's strings, counting the strings that its slices copy."""

    def __init__(self, strings: list[str]) -> None:
        super().__init__(strings)
        self.copied = 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            self.copied += len(range(*index.indices(len(self))))
        return super().__getitem__(index)


def test_reads_in_any_order_sum_only_near_the_value_read():
    """Every deferred field of the seed-1 broken-domain domain's actions,
    read in a shuffled order, copies no more of the tape's strings than the
    value's own and one stride per run of typed items ('-' ends a run), so
    no read sums the bytes of the text before it."""
    doc = Document(benchmark_inputs("broken-domain", 1).domain.text)
    domain = parse_domain(doc)[0]
    tape = doc.tape
    tape.offset(len(tape.texts))  # the offset index, built once
    tape.texts = strings = _CountedStrings(tape.texts)
    reads = [(action, field) for action in domain.actions
             for field in type(action)._deferred]
    random.Random(31).shuffle(reads)
    deferred = 0
    for action, field in reads:
        slot = vars(type(action))[field].fget.args[0]
        value = slot.__get__(action)
        if type(value) is not sexpr.Deferred:
            continue
        deferred += 1
        k = value.args[-1]
        runs = 1 + tape.pieces[k:tape.last[k] + 1].count("-")
        before = strings.copied
        getattr(action, field)
        assert strings.copied - before \
            <= 2 * (tape.last[k] - k) + 2 + runs * sexpr.Tape.STRIDE
    assert deferred >= 3 * len(domain.actions) == 1200


def test_the_actions_of_a_model_share_one_recording_walk(monkeypatch):
    """Reading every action's parameters of the seed-1 broken-domain domain
    makes two walks: the model's, and the one that records the parameters
    of all its actions."""
    walks, init = [], pddl_model._Walk.__init__

    def counted(self, *args):
        walks.append(self)
        init(self, *args)

    monkeypatch.setattr(pddl_model._Walk, "__init__", counted)
    domain, _ = pddl_model.parse_domain(
        Document(benchmark_inputs("broken-domain", 1).domain.text))
    parameters = [action.parameters for action in domain.actions]
    assert len(parameters) == 400 and all(p.entries for p in parameters)
    assert len(walks) == 2 and walks[1] is walks[0].recorder


def test_reading_parameters_asks_one_offset_and_reports_nothing(
        monkeypatch):
    """The walk that builds an action's parameters on first read reports
    nothing, as the model's walk has reported their findings: reading
    ``(?x k ?y - (t))``, whose ``k`` and ``(t)`` the model reports, asks the
    tape for one offset, that of the run of entries."""
    domain, diagnostics = parse_domain(
        "(define (domain d)\n"
        "  (:action a :parameters (?x k ?y - (t)) :effect (p ?x)))")
    assert [d.code for d in diagnostics] == ["bad-typed-list-item",
                                             "bad-type"]
    [action] = domain.actions
    deferred = vars(type(action))["parameters"].fget.args[0].__get__(action)
    recorder = deferred.args[0]
    asked, offset = [], sexpr.Tape.offset
    monkeypatch.setattr(sexpr.Tape, "offset", lambda tape, i: asked.append(
        i) or offset(tape, i))
    assert [(e.name, e.type_name) for e in action.parameters.entries] == [
        ("?x", "(t)"), ("?y", "(t)")]
    assert len(asked) == 1 and recorder.diagnostics == []


def test_a_finding_message_is_made_only_where_it_is_kept(monkeypatch):
    """The token walk and the walk that reads an action's parameters keep
    no finding, so neither quotes source for one: only the model's walk
    calls ``excerpt``, once per finding that quotes its value."""
    text = ("(define (domain d) (:types a - (t) b) (:functions (f) 3)\n"
            "  (:action a :parameters (?x k ?y - (t)) :effect (p ?x))\n"
            "  (:action b :parameters x :effect (p x)))")
    calls, excerpt = [], pddl_model.excerpt
    monkeypatch.setattr(pddl_model, "excerpt",
                        lambda text: calls.append(text) or excerpt(text))
    tokenize(text)
    assert calls == []
    domain, diagnostics = parse_domain(text)
    assert [d.code for d in diagnostics] == [
        "bad-type", "bad-function", "bad-typed-list-item", "bad-type",
        "bad-parameters"]
    assert calls == ["'(t)'", "'3'", "'k'", "'(t)'", "'x'"]
    del calls[:]
    assert domain.actions[0].parameters.names() == ["?x", "?y"]
    assert calls == []
