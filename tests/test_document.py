"""One `Document` per file: byte-exact reads and writes, strict decoding,
one line index per file, and exactly one parse per input file for every
command."""

import copy
import json
import pickle
import sys

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mypddl import sexpr
from mypddl.cli import main
from mypddl.construct import insert_construct, parse_constructs
from mypddl.distance import augment_with_distances
from mypddl.highlight import tokenize
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

from conftest import CORPUS

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


# -- one parse per file -------------------------------------------------------------

@pytest.fixture
def parse_calls(monkeypatch):
    """Texts passed to ``parse_sexpr``, under every name it is bound to."""
    calls: list[str] = []
    real = sexpr.parse_sexpr

    def counting(text, *args):
        calls.append(text)
        return real(text, *args)

    for name, module in list(sys.modules.items()):
        if name == "mypddl" or name.startswith("mypddl."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counting)
    return calls


# ``others`` counts the other texts parsed: a construct, for ``extract`` the
# slice of the block that the index found, and for ``distance`` the slice of
# its run of location facts. ``insert`` parses nothing of the file.
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
def test_each_command_parses_each_file_at_most_once(
        runner, tmp_path, parse_calls, argv, files, others):
    dom, prob = tmp_path / "store.pddl", tmp_path / "pizza.pddl"
    dom.write_bytes((CORPUS / "store.pddl").read_bytes())
    prob.write_bytes((CORPUS / "gary_pizza_problem.pddl").read_bytes())
    argv = [a.format(dom=dom, prob=prob, out=tmp_path / "out") for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    file_texts = {dom.read_text(encoding="utf-8"),
                  (CORPUS / "gary_pizza_problem.pddl").read_text(
                      encoding="utf-8")}
    assert len([t for t in parse_calls if t in file_texts]) == files
    assert len(parse_calls) == files + others
