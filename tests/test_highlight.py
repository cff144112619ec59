"""Context-aware highlighting tests, including the pre-registered golden
annotations for the two deliberately erroneous corpus domains."""

import copy
import html
import json
import pickle
import sys
import tracemalloc
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main

from mypddl.highlight import (
    _CSS,
    _JSON_RUN,
    Scope,
    Token,
    TokenColumns,
    emit_tokens_json,
    invalid_regions,
    iter_tokens_json,
    render_html,
    scope_columns,
    tokenize,
)
from mypddl.model import _Walk
from mypddl.sexpr import Document, Span, Tape, parse_sexpr

from conftest import CORPUS, benchmark_inputs, corpus_text, golden_json


def scopes_at(text, needle, occurrence=0):
    """Scopes of the token(s) covering the needle's span."""
    data = text.encode("utf-8")
    start = -1
    for _ in range(occurrence + 1):
        start = data.find(needle.encode("utf-8"), start + 1)
    assert start != -1, needle
    span = Span(start, start + len(needle.encode("utf-8")))
    return {t.scope for t in tokenize(text) if t.span.overlaps(span)}


def test_tokens_tile_minimal_domain():
    text = "(define (domain d))"
    tokens = tokenize(text)
    assert [t.text for t in tokens] == [
        "(", "define", " ", "(", "domain", " ", "d", ")", ")"]
    assert len(tokens) == 9
    assert Scope.UNSCOPED not in {t.scope for t in tokens}
    assert [t.scope for t in tokens if t.text == "define"] == [Scope.KEYWORD]
    assert [t.scope for t in tokens if t.text == "d"] == [Scope.NAME]


@pytest.mark.parametrize("name", [
    "splisus.pddl", "store.pddl", "logistics.pddl", "coffee.pddl",
    "garys_huge_problem.pddl", "gary_pizza_problem.pddl",
])
def test_tokens_tile_corpus(name):
    text = corpus_text(name)
    tokens = tokenize(text)
    pos = 0
    for token in tokens:
        assert token.span.start == pos
        pos = token.span.end
    assert pos == len(text.encode("utf-8"))


@given(st.text(alphabet="()ab ;:?-\n$_=", max_size=80))
@settings(max_examples=300)
def test_tokens_tile_any_text(text):
    tokens = tokenize(text)
    pos = 0
    for token in tokens:
        assert token.span.start == pos
        pos = token.span.end
    assert pos == len(text.encode("utf-8"))


def test_tokenize_is_deterministic():
    text = corpus_text("coffee.pddl")
    assert tokenize(text) == tokenize(text)


@pytest.mark.parametrize("name", [
    "splisus.pddl", "store.pddl",
    "garys_huge_problem.pddl", "gary_pizza_problem.pddl",
])
def test_valid_corpus_has_no_invalid_regions(name):
    text = corpus_text(name)
    assert invalid_regions(tokenize(text)) == []


def test_double_question_variable_is_unscoped():
    text = corpus_text("coffee.pddl")
    assert scopes_at(text, "??o") == {Scope.UNSCOPED}


def test_misplaced_block_keyword_is_unscoped():
    text = corpus_text("logistics.pddl")
    assert scopes_at(text, ":typing") == {Scope.UNSCOPED}
    # the block's content is still readable, only the head is flagged
    assert scopes_at(text, "motorboat") == {Scope.NAME}


def test_misspelled_name_stays_name():
    text = corpus_text("logistics.pddl")
    assert scopes_at(text, "incity") == {Scope.NAME}
    assert scopes_at(text, "ay ") == {Scope.NAME, Scope.PUNCTUATION}


def test_variable_positions():
    text = "(define (domain d) (:predicates (p ?x - t)))"
    assert scopes_at(text, "?x") == {Scope.VARIABLE}
    assert scopes_at(text, "t)") == {Scope.TYPE_NAME, Scope.PUNCTUATION}


def test_parameters_keyword_only_inside_action():
    inside = "(define (domain d) (:action a :parameters (?x - t) :effect (p ?x)))"
    assert scopes_at(inside, ":parameters") == {Scope.KEYWORD}
    outside = "(define (domain d) (:parameters (?x - t)))"
    assert scopes_at(outside, ":parameters") == {Scope.UNSCOPED}


def test_requirements_scoping():
    text = "(define (domain d) (:requirements :typing :strips))"
    assert scopes_at(text, ":typing") == {Scope.REQUIREMENT}
    bad = corpus_text("logistics.pddl")
    assert scopes_at(bad, ":types") == {Scope.UNSCOPED}


def test_invalid_regions_merge_across_whitespace():
    text = corpus_text("logistics.pddl")
    data = text.encode("utf-8")
    regions = invalid_regions(tokenize(text))
    texts = [data[r.start:r.end].decode("utf-8") for r in regions]
    assert "= true" in texts
    assert "?p ?v" in texts


def test_degenerate_parens_one_region():
    regions = invalid_regions(tokenize("((("))
    assert len(regions) == 1
    assert regions[0] == Span(0, 3)


@pytest.mark.parametrize("text", [
    "(" * 5000,
    "(define (domain d) (:action a :precondition "
    + "(and " * 2000 + "(p ?x)" + ")" * 2000 + " :effect (q)))",
])
def test_pathological_nesting_still_tiles(text):
    tokens = tokenize(text)
    pos = 0
    for token in tokens:
        assert token.span.start == pos
        pos = token.span.end
    assert pos == len(text.encode("utf-8"))


def test_lists_beyond_the_depth_limit_keep_their_parens():
    text = ("(define (domain d) (:constraints " + "(and ; c\n " * 120
            + "(p a ?x 3 -) x" + ")" * 120 + "))" + "(a (b" * 150)
    tokens = tokenize(text)
    closers = [t for t in tokens if t.text == ")"]
    assert len(closers) == text.count(")")
    assert {t.scope for t in closers} == {Scope.PUNCTUATION}
    openers = [t.scope for t in tokens if t.text == "("]
    assert openers == [Scope.PUNCTUATION] * 124 + [Scope.UNSCOPED] * 300
    deep = [t for t in tokens if t.text in ("p", "?x", "3", "-")]
    assert [t.scope for t in deep] == [
        Scope.NAME, Scope.VARIABLE, Scope.NUMBER, Scope.PUNCTUATION]


@pytest.mark.parametrize("name,golden_name", [
    ("logistics.pddl", "logistics_errors.json"),
    ("coffee.pddl", "coffee_errors.json"),
])
def test_golden_annotations(name, golden_name):
    text = corpus_text(name)
    golden = golden_json(golden_name)
    data = text.encode("utf-8")
    regions = invalid_regions(tokenize(text))
    assert len(regions) >= 12

    found = 0
    for entry in golden:
        span = Span(entry["start"], entry["end"])
        assert data[span.start:span.end] == entry["excerpt"].encode("utf-8")
        if any(span.overlaps(region) for region in regions):
            found += 1
    assert found / len(golden) >= 0.70
    # every annotation judged syntactic must be caught
    for entry in golden:
        if entry["kind"] == "syntactic":
            span = Span(entry["start"], entry["end"])
            assert any(span.overlaps(region) for region in regions), \
                entry["excerpt"]


# The regions of the two broken corpus domains, pinned as (start, end).
_GOLDEN_REGIONS = {
    "logistics.pddl": [
        (39, 49), (73, 79), (86, 93), (437, 443), (511, 516), (917, 930),
        (1024, 1031), (1211, 1222), (1269, 1282), (1289, 1291), (1438, 1439),
        (1526, 1531), (1537, 1545), (1593, 1594)],
    "coffee.pddl": [
        (8, 14), (19, 31), (101, 102), (143, 161), (186, 193), (298, 301),
        (392, 398), (495, 497), (523, 537), (641, 651), (824, 836), (907, 911),
        (1511, 1521), (1614, 1621), (1623, 1626), (1679, 1680)],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN_REGIONS))
def test_invalid_regions_of_the_broken_domains_are_pinned(name):
    regions = invalid_regions(tokenize(corpus_text(name)))
    assert [tuple(r) for r in regions] == _GOLDEN_REGIONS[name]
    assert all(type(r) is Span for r in regions)


def test_variable_scope_depends_on_its_block_not_its_text():
    text = ("(define (problem p) (:domain d)\n"
            "  (:init (at ?x a) (at a b))\n"
            "  (:goal (and (at ?x a) (at a ?x))))")
    data = text.encode("utf-8")
    goal = data.index(b"(:goal")
    scopes = [(t.span.start < goal, t.scope) for t in tokenize(text)
              if t.text == "?x"]
    assert scopes == [(True, Scope.UNSCOPED), (False, Scope.VARIABLE),
                      (False, Scope.VARIABLE)]


def test_deleting_a_closer_creates_an_invalid_region():
    text = corpus_text("splisus.pddl")
    positions = [i for i, c in enumerate(text) if c == ")"]
    for pos in positions:
        mutated = text[:pos] + text[pos + 1:]
        assert invalid_regions(tokenize(mutated)), f"closer at {pos}"


def test_emit_tokens_json_bare_atom():
    records = json.loads(emit_tokens_json(tokenize("x")))
    assert records == [{"start": 0, "end": 1, "scope": "Unscoped", "text": "x"}]


def test_emit_tokens_json_empty_file():
    assert json.loads(emit_tokens_json(tokenize(""))) == []


def test_emit_tokens_json_minimal_domain():
    text = "(define (domain d))"
    records = json.loads(emit_tokens_json(tokenize(text)))
    assert len(records) == 9
    assert records == sorted(records, key=lambda r: r["start"])
    assert "".join(r["text"] for r in records) == text


def reference_tokens_json(tokens):
    records = [{"start": t.span.start, "end": t.span.end,
                "scope": t.scope.value, "text": t.text} for t in tokens]
    return json.dumps(records, ensure_ascii=False, indent=1).encode("utf-8")


@pytest.mark.parametrize("name", [
    "splisus.pddl", "store.pddl", "logistics.pddl", "coffee.pddl",
    "garys_huge_problem.pddl", "gary_pizza_problem.pddl",
])
def test_emit_tokens_json_matches_json_dumps_on_corpus(name):
    text = corpus_text(name)
    tokens = tokenize(text)
    assert emit_tokens_json(tokens) == reference_tokens_json(tokens)


_AWKWARD = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x01\x1f\x7f\x85\u2028\u2029\ufeff\n\r\t\b\f é中😀'),
    st.characters(blacklist_categories=("Cs",))))


@given(st.lists(st.tuples(_AWKWARD, st.sampled_from(list(Scope))), max_size=8))
@settings(max_examples=300)
def test_emit_tokens_json_matches_json_dumps_on_awkward_text(pieces):
    tokens, pos = [], 0
    for text, scope in pieces:
        end = pos + len(text.encode("utf-8"))
        tokens.append(Token(Span(pos, end), scope, text))
        pos = end
    text = "".join(t.text for t in tokens)
    assert emit_tokens_json(tokens) == reference_tokens_json(tokens)


# Text that JSON escapes: quotes, backslashes, control characters, and
# non-ASCII text that ``ensure_ascii=False`` writes as it is.
_ESCAPED = ['"', "\\", "\x00", "\x1f", "\n\r\t", "é中😀", "\u2028", "a"]


@pytest.mark.parametrize("count", [0, 1, _JSON_RUN - 1, _JSON_RUN,
                                   _JSON_RUN + 1, 2 * _JSON_RUN + 1])
def test_streamed_tokens_json_matches_json_dumps_at_run_edges(count):
    tokens, pos = [], 0
    for i in range(count):
        text = _ESCAPED[i % len(_ESCAPED)] * (1 + i % 3)
        end = pos + len(text.encode("utf-8"))
        tokens.append(Token(Span(pos, end), list(Scope)[i % len(Scope)], text))
        pos = end
    pieces = list(iter_tokens_json(tokens))
    assert b"".join(pieces) == reference_tokens_json(tokens)
    assert emit_tokens_json(tokens) == reference_tokens_json(tokens)
    # one piece per run of tokens, then the closing bracket
    assert len(pieces) == -(-count // _JSON_RUN) + 1


def test_streamed_tokens_json_holds_a_small_share_of_its_output():
    """The writer keeps one run of tokens rendered at a time: its traced
    peak into a sink that drops each piece stays below half the output."""
    tokens = tokenize(Document(benchmark_inputs("large-problem", 1)
                               .problem.text))
    size = 0
    tracemalloc.start()
    try:
        for piece in iter_tokens_json(tokens):
            size += len(piece)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 1_000_000
    assert peak < 0.5 * size, (peak, size)


# Text that the byte templates must pass through as it is: '%' and format
# codes, JSON escapes, control characters, 1- to 4-byte UTF-8, a BOM, CRLF.
_TEMPLATE_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.sampled_from([
        "(", ")", " ", "\r\n", "\n", ";", "%", "%d", "%s", "%%", "%(x)s",
        '"', "\\", "\x00", "\x01", "\x1f", "\x7f", "a", "é", "中", "😀",
        "?x", "-", ":init", "(define (problem q) (:init "]), max_size=80)
    .map("".join),
).map("".join)


@given(_TEMPLATE_TEXT)
@settings(max_examples=300)
def test_both_writers_give_json_dumps_bytes(text):
    tokens = tokenize(text)
    expected = reference_tokens_json(tokens)
    assert b"".join(scope_columns(text).iter_json()) == expected
    assert emit_tokens_json(tokens) == expected


def _traced_peak(pieces):
    """The output size of an iterator of pieces dropped as they come, and
    the traced peak while it runs."""
    size = 0
    tracemalloc.start()
    try:
        for piece in pieces:
            size += len(piece)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size, peak


def test_the_tail_cache_stays_small_when_every_atom_is_distinct():
    """Each distinct (scope, text) pair's tail is cached, but not without
    bound: with 20,000 distinct atoms the writers still hold a small share
    of their output."""
    text = "(" + " ".join(f"atom{i:05d}" for i in range(20_000)) + ")"
    columns = scope_columns(text)
    columns.offsets()
    tokens = tokenize(text)
    for pieces in (columns.iter_json(), iter_tokens_json(tokens)):
        size, peak = _traced_peak(pieces)
        assert size > 2_000_000
        assert peak < 0.5 * size, (peak, size)


def test_the_column_writer_makes_no_python_call_per_token():
    """Python-level calls while the columns are written: one per run, one
    per distinct (scope, text) pair, and a few more; none per token."""
    columns = scope_columns(Document(benchmark_inputs("large-problem", 1)
                                     .problem.text))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for _ in columns.iter_json():
            pass
    finally:
        sys.setprofile(None)
    runs = -(-len(columns.texts) // _JSON_RUN)
    distinct = len(set(zip(columns.scopes, columns.texts)))
    assert len(columns.texts) > 30_000
    assert calls <= runs + distinct + 10, (calls, runs, distinct)


def test_the_emitters_take_no_source_text():
    tokens = tokenize("(a)")
    with pytest.raises(TypeError):
        emit_tokens_json(tokens, "(a)")
    with pytest.raises(TypeError):
        render_html(tokens, "(a)")


def test_render_html_empty():
    doc = render_html([])
    assert doc.startswith("<!DOCTYPE html>")
    assert "<pre>" in doc


def test_render_html_region_wrappers_match_regions():
    text = corpus_text("coffee.pddl")
    tokens = tokenize(text)
    doc = render_html(tokens)
    assert doc.count('class="invalid-region"') == len(invalid_regions(tokens))


def test_render_html_valid_domain_has_no_invalid_class(splisus_text):
    tokens = tokenize(splisus_text)
    doc = render_html(tokens)
    assert 'class="invalid-region"' not in doc


def reference_regions(tokens):
    """The per-token region scan `invalid_regions` replaced."""
    regions, start, end = [], None, 0
    for token in tokens:
        if token.scope is Scope.UNSCOPED:
            if start is None:
                start = token.span.start
            end = token.span.end
        elif token.scope is Scope.PUNCTUATION and token.text.isspace():
            continue
        elif start is not None:
            regions.append(Span(start, end))
            start = None
    if start is not None:
        regions.append(Span(start, end))
    return regions


def reference_html(tokens, title="PDDL"):
    """The per-token renderer `render_html` replaced: one `html.escape` per
    token, wrapper spans opened and closed at region starts and ends."""
    regions = reference_regions(tokens)
    opens = {r.start for r in regions}
    closes = {r.end for r in regions}
    out = [f"<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
           f"<title>{html.escape(title)}</title>\n<style>\n{_CSS}</style>\n"
           f"</head>\n<body>\n<pre>"]
    for token in tokens:
        if token.span.start in opens:
            out.append('<span class="invalid-region">')
        if token.scope is Scope.UNSCOPED:
            out.append(html.escape(token.text))
        else:
            cls = f"scope-{token.scope.value.lower()}"
            out.append(f'<span class="{cls}">{html.escape(token.text)}</span>')
        if token.span.end in closes:
            out.append("</span>")
    out.append("</pre>\n</body>\n</html>\n")
    return "".join(out)


@pytest.mark.parametrize("name", sorted(_GOLDEN_REGIONS))
def test_render_html_of_the_broken_domains_matches_the_reference(name):
    tokens = tokenize(corpus_text(name))
    assert render_html(tokens, title=name) == reference_html(tokens, name)


_HTML_PIECES = st.lists(st.sampled_from([
    "(", ")", " ", "\n", "\r\n", "\t", "; a&b <c> \"d\" 'e'\n", ";é\r\n",
    "&", "<", ">", '"', "'", "a&b", "<x>", "é", "中", "😀", "?x", "?", "-",
    "1.5", "define", "domain", "problem", ":requirements", ":strips",
    ":types", ":predicates", ":action", ":parameters", ":init", ":goal",
    "(define (domain d&<>)", "(define (problem p) (:domain d)",
    "(:predicates (at ?x - obj))", "(:init (at a) (= (f a) 2))",
]), max_size=40).map("".join)


@given(_HTML_PIECES, st.sampled_from(["", "\ufeff"]))
@settings(max_examples=300)
def test_render_html_matches_the_reference_on_random_text(text, bom):
    tokens = tokenize(bom + text)
    assert invalid_regions(tokens) == reference_regions(tokens)
    assert render_html(tokens, title=text[:9]) \
        == reference_html(tokens, text[:9])


@given(st.lists(st.tuples(st.sampled_from(["(", ")", " ", "\r\n", "a&b", "<é>"]),
                          st.sampled_from(list(Scope))), max_size=30))
@settings(max_examples=300)
def test_render_html_matches_the_reference_on_any_scopes(pieces):
    tokens, pos = [], 0
    for text, scope in pieces:
        end = pos + len(text.encode("utf-8"))
        tokens.append(Token(Span(pos, end), scope, text))
        pos = end
    assert invalid_regions(tokens) == reference_regions(tokens)
    assert render_html(tokens) == reference_html(tokens)


def test_scope_members_keep_their_enum_semantics():
    assert Scope("Keyword") is Scope.KEYWORD
    assert Scope["NAME"] is Scope.NAME
    for scope in Scope:
        assert pickle.loads(pickle.dumps(scope)) is scope
        assert copy.deepcopy(scope) is scope
    assert len(set(Scope)) == 9
    assert {Scope.KEYWORD: 1}.get(Scope("Keyword")) == 1


# -- the column stream ------------------------------------------------------------

# Arbitrary text: non-ASCII atoms and comments, CRLF and unbalanced
# parentheses, inside and outside a define form, with or without a BOM.
_COLUMN_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff"]),
    st.sampled_from(["", "(define (domain d) (:predicates (p ?x)) ",
                     "(define (problem q) (:domain d) (:init "]),
    st.lists(st.sampled_from([
        "(", ")", " ", "\r\n", "\n", "\t", ";", "é", "中", "😀", "?x", "-",
        ":goal", "and", "2", "\u2028", "a"]), max_size=60).map("".join),
).map("".join)


# Problems whose :init holds facts, numeric facts and junk among comments
# and line breaks, some never closed.
_INIT_TEXT = st.tuples(
    st.sampled_from(["", "\ufeff", "; c\n"]),
    st.lists(st.sampled_from([
        "(p a)", "(p ?x)", "(= (f a) 1)", "(= (f ?x) #t)", "(= (f a) (+ 1 2))",
        "(not (p a))", "(at 5 (p a))", "()", "a", "((p))", "(and (p))",
        "; c\n", "\r\n", "\t", "(p \u00e9", ")", "(", "-"]), max_size=20),
).map(lambda parts: parts[0] + "(define (problem q) (:domain d) (:init "
      + " ".join(parts[1]) + "))")


@given(st.one_of(_COLUMN_TEXT, _INIT_TEXT))
@settings(max_examples=400)
def test_the_columns_and_the_token_list_give_the_same_outputs(text):
    # A walk's regions are read off its lexeme scopes, before any token
    # column is built.
    with mock.patch.object(_Walk, "tokens", side_effect=AssertionError):
        regions = scope_columns(text).invalid_regions()
    columns = scope_columns(text)
    tokens = tokenize(text)
    assert regions == columns.invalid_regions() == invalid_regions(tokens)
    assert b"".join(columns.iter_json()) == emit_tokens_json(tokens)
    assert columns.render_html(title="t") == render_html(tokens, title="t")
    # tokenize's spans tile the UTF-8 bytes, each over its own text.
    data = text.encode("utf-8")
    pos = 0
    for token in tokens:
        assert token.span.start == pos
        pos = token.span.end
        assert data[token.span.start:pos] == token.text.encode("utf-8")
    assert pos == len(data)


def test_check_builds_no_token_columns(tmp_path, monkeypatch):
    """``check`` reads its regions off the walk's lexeme scopes: on the
    seed-1 large-problem problem it builds no token column."""
    built = []
    monkeypatch.setattr(_Walk, "tokens", lambda walk: built.append(walk))
    path = tmp_path / "p.pddl"
    path.write_bytes(benchmark_inputs("large-problem", 1).problem.text)
    for argv in (["check", str(path)], ["--json", "check", str(path)]):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, result.output
    assert built == []


@pytest.mark.parametrize("argv, status, shown", [
    (["check"], 1, "invalid"), (["tokens", "--format", "html"], 0, "invalid"),
    (["diagram", "--no-render"], 0, "[unknown-action-key]")])
def test_no_command_sums_an_offset_for_every_tape_string(
        tmp_path, monkeypatch, argv, status, shown):
    """Byte offsets are summed only near what is reported: on the seed-1
    broken-domain domain, which has regions and findings, ``check``,
    ``tokens --format html`` and ``diagram --no-render`` ask the tape for
    the offsets of fewer than one string in ten (``Tape.offset``), and its
    index holds one offset per stride, not one per string."""
    asked = []
    offset = Tape.offset
    monkeypatch.setattr(Tape, "offset", lambda tape, i: asked.append(
        tape) or offset(tape, i))
    path = tmp_path / "d.pddl"
    path.write_bytes(benchmark_inputs("broken-domain", 1).domain.text)
    out = ["--out", str(tmp_path)] if argv[0] == "diagram" else []
    result = CliRunner().invoke(main, [*argv, str(path), *out])
    assert result.exit_code == status and shown in result.output
    for tape in set(asked):
        assert asked.count(tape) < len(tape.texts) / 10
        assert len(tape._index) <= len(tape.texts) // Tape.STRIDE + 2


@pytest.mark.parametrize("name", ["coffee.pddl", "logistics.pddl"])
def test_the_columns_are_those_of_tokenize(name):
    doc = Document((CORPUS / name).read_bytes())
    columns = scope_columns(doc)
    tokens = tokenize(doc)
    assert columns.texts == [t.text for t in tokens]
    assert columns.scopes == [t.scope for t in tokens]
    starts, ends = columns.offsets()
    assert list(zip(starts, ends)) == [tuple(t.span) for t in tokens]
    assert starts[-1] == len(doc.data)


def test_a_valid_file_gets_its_regions_without_offsets(splisus_text):
    columns = scope_columns(splisus_text)
    assert columns.invalid_regions() == []
    assert columns._offsets is None


def test_a_bom_token_is_three_bytes():
    columns = scope_columns(Document(b"\xef\xbb\xbf(a)"))
    assert columns.texts[0] == "\ufeff"
    assert columns.offsets()[0][:3] == [0, 3, 4]


@pytest.mark.parametrize("text,scopes", [
    ("\ufeff(define (domain d))", [Scope.PUNCTUATION]),
    (" \ufeff(define (domain d))", [Scope.UNSCOPED]),
    ("\ufeff\ufeff", [Scope.PUNCTUATION, Scope.UNSCOPED]),
    ("x \ufeffabc", []),
], ids=["bom", "after-a-space", "bom-then-atom", "in-an-atom"])
def test_only_a_feff_at_offset_0_is_a_byte_order_mark(text, scopes):
    """A byte order mark is Punctuation; U+FEFF anywhere else is an atom,
    Unscoped at the top level, and a slice of a file that starts with it
    is read as the file is."""
    assert [t.scope for t in tokenize(text) if t.text == "\ufeff"] == scopes
    start = text.index("\ufeff", 1) if text.count("\ufeff") > 1 \
        else text.index("\ufeff")
    offset = len(text[:start].encode("utf-8"))
    if offset:
        forest, _ = parse_sexpr(text)
        sliced, _ = parse_sexpr(text[start:], offset)
        assert [(n.kind, n.text, n.span) for n in sliced] == \
            [(n.kind, n.text, n.span) for n in forest if n.start >= offset]


def test_the_adapters_read_a_token_list_that_does_not_tile():
    # Spans come from the tokens themselves, not from their texts.
    tokens = [Token(Span(4, 5), Scope.UNSCOPED, "x"),
              Token(Span(9, 10), Scope.PUNCTUATION, " "),
              Token(Span(10, 12), Scope.UNSCOPED, "yy")]
    assert invalid_regions(tokens) == [Span(4, 12)]
    assert TokenColumns.of(tokens).offsets() == ([4, 9, 10], [5, 10, 12])
    assert b'"start": 9' in emit_tokens_json(tokens)
