"""Construct extraction and insertion: blocks out, constructs in, every
other byte untouched."""

import os
import stat
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mypddl.construct import (
    ConstructError,
    add_construct,
    insert_construct,
    parse_constructs,
    read_construct,
)
from mypddl.sexpr import (
    Document,
    NodeKind,
    find_blocks,
    parse_sexpr,
    serialize_node,
)

from conftest import CORPUS, FIXTURES
from references import tree_insert


def test_read_construct_goal(gary_problem):
    blocks = read_construct(":goal", gary_problem)
    assert [serialize_node(b) for b in blocks] == \
        ["(:goal (exploited magicfailureapp))"]


def test_read_construct_no_init():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.pddl"
        path.write_text("(define (problem p) (:domain d) (:goal (g)))",
                        encoding="utf-8")
        assert read_construct(":init", path) == []


def test_read_construct_splisus_action(corpus):
    blocks = read_construct(":action", corpus / "splisus.pddl")
    assert len(blocks) == 1
    assert blocks[0].values()[1].text == "kill"


def test_read_construct_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_construct(":goal", tmp_path / "nope.pddl")


def test_add_construct_appends_last_with_alignment(gary_problem):
    original = gary_problem.read_text(encoding="utf-8")
    updated = add_construct(gary_problem, ":init",
                            parse_constructs("(hungry gisela)"))
    assert gary_problem.read_text(encoding="utf-8") == updated
    assert "(hungry gary)" in updated
    assert "\n         (hungry gisela))" in updated

    facts = read_construct(":init", gary_problem)[0].values()[1:]
    assert serialize_node(facts[-1]) == "(hungry gisela)"
    assert serialize_node(facts[0]) == "(hungry gary)"

    # bytes outside the init block unchanged
    forest, _ = parse_sexpr(original)
    from mypddl.sexpr import find_blocks
    init_span = find_blocks(forest, ":init")[0].span
    assert updated[:init_span.start] == original[:init_span.start]
    assert updated.endswith(original[init_span.end:])


def test_add_construct_empty_sequence_is_identity(gary_problem):
    original = gary_problem.read_text(encoding="utf-8")
    updated = add_construct(gary_problem, ":init", [])
    assert updated == original
    assert gary_problem.read_text(encoding="utf-8") == original


def test_add_construct_two_facts_in_order(gary_problem):
    add_construct(gary_problem, ":init",
                  parse_constructs("(hungry gisela) (tired gary)"))
    facts = read_construct(":init", gary_problem)[0].values()[1:]
    assert serialize_node(facts[-2]) == "(hungry gisela)"
    assert serialize_node(facts[-1]) == "(tired gary)"


def test_add_construct_round_trip(gary_problem):
    add_construct(gary_problem, ":goal", parse_constructs("(fed gary)"))
    goal = read_construct(":goal", gary_problem)[0]
    rendered = [serialize_node(n) for n in goal.values()[1:]]
    assert "(fed gary)" in rendered


def test_add_construct_duplicates_are_kept(gary_problem):
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    facts = read_construct(":init", gary_problem)[0].values()[1:]
    rendered = [serialize_node(n) for n in facts]
    assert rendered.count("(hungry gisela)") == 2


def test_insert_into_first_matching_block_only():
    text = "(:init (a))\n(:init (b))"
    updated = insert_construct(text, ":init", parse_constructs("(c)"))
    assert updated == "(:init (a)\n       (c))\n(:init (b))"


def test_insert_into_empty_block_uses_single_space():
    updated = insert_construct("(:init)", ":init", parse_constructs("(a)"))
    assert updated == "(:init (a))"


def test_insert_missing_block_raises():
    with pytest.raises(ConstructError, match=":init"):
        insert_construct("(define (problem p))", ":init",
                         parse_constructs("(a)"))


def test_insert_into_empty_file_raises():
    with pytest.raises(ConstructError):
        insert_construct("  ; nothing here\n", ":init", parse_constructs("(a)"))


def test_parse_constructs_rejects_trivia_only():
    with pytest.raises(ConstructError):
        parse_constructs("  ; comment\n")


def test_parse_constructs_rejects_unbalanced_text():
    with pytest.raises(ConstructError, match="not well formed"):
        parse_constructs("(hungry gisela")
    with pytest.raises(ConstructError, match="not well formed"):
        parse_constructs("(hungry gisela))")


def test_insert_cli_never_corrupts_file(gary_problem):
    from click.testing import CliRunner

    from mypddl.cli import main

    before = gary_problem.read_text(encoding="utf-8")
    result = CliRunner().invoke(main, [
        "insert", str(gary_problem), ":init", "(hungry gisela"])
    assert result.exit_code == 1
    assert gary_problem.read_text(encoding="utf-8") == before


def test_a_write_the_caller_may_not_give_its_owner_still_lands(
        gary_problem, monkeypatch):
    from mypddl import construct

    def refuse(*args):
        raise PermissionError(1, "Operation not permitted")

    # As for a user who may not set the file's owner or group.
    monkeypatch.setattr(construct.os, "chown", refuse)
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    assert "(hungry gisela)" in gary_problem.read_text(encoding="utf-8")
    assert [p.name for p in gary_problem.parent.iterdir()
            if p.name.startswith(gary_problem.name + ".")] == []


def _temp_files(path):
    return [p.name for p in path.parent.iterdir()
            if p.name.startswith(path.name + ".")]


def test_a_write_syncs_the_file_then_renames_then_syncs_the_directory(
        gary_problem, monkeypatch):
    from mypddl import construct

    calls = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        kind = "directory" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(("fsync", kind))
        fsync(fd)

    def record_replace(source, target):
        calls.append(("replace", Path(target).name))
        replace(source, target)

    monkeypatch.setattr(construct.os, "fsync", record_fsync)
    monkeypatch.setattr(construct.os, "replace", record_replace)
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    assert calls == [("fsync", "file"), ("replace", gary_problem.name),
                     ("fsync", "directory")]
    assert "(hungry gisela)" in gary_problem.read_text(encoding="utf-8")


@pytest.mark.parametrize("failing", [1, 2])
def test_a_failing_sync_leaves_the_file_and_no_temp_file(
        gary_problem, monkeypatch, failing):
    from mypddl import construct

    before = gary_problem.read_bytes()
    calls = []

    def fsync(fd):
        calls.append(fd)
        if len(calls) == failing:
            raise OSError(5, "Input/output error")

    monkeypatch.setattr(construct.os, "fsync", fsync)
    with pytest.raises(ConstructError,
                       match=r"cannot write .*: Input/output error"):
        add_construct(gary_problem, ":init",
                      parse_constructs("(hungry gisela)"))
    assert _temp_files(gary_problem) == []
    if failing == 1:  # the file's sync: the rename never happened
        assert gary_problem.read_bytes() == before


def test_a_directory_that_cannot_be_opened_is_not_synced(gary_problem,
                                                        monkeypatch):
    from mypddl import construct

    opened, synced = os.open, []

    def open_no_directory(path, *args):
        if os.path.isdir(path):  # as Windows refuses to
            raise PermissionError(13, "Permission denied")
        return opened(path, *args)

    monkeypatch.setattr(construct.os, "open", open_no_directory)
    monkeypatch.setattr(construct.os, "fsync", synced.append)
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    assert len(synced) == 1  # the file's
    assert "(hungry gisela)" in gary_problem.read_text(encoding="utf-8")


def test_a_temp_name_already_taken_is_drawn_again(gary_problem, monkeypatch):
    from mypddl import construct

    taken = gary_problem.parent / f"{gary_problem.name}.{'00' * 4}"
    taken.write_bytes(b"someone else's")
    draws = iter([bytes(4), b"\x01" * 4])
    monkeypatch.setattr(construct.os, "urandom", lambda n: next(draws))
    add_construct(gary_problem, ":init", parse_constructs("(hungry gisela)"))
    assert "(hungry gisela)" in gary_problem.read_text(encoding="utf-8")
    assert taken.read_bytes() == b"someone else's"
    assert next(draws, None) is None
    assert _temp_files(gary_problem) == [taken.name]


# -- the structural index against the tree -------------------------------------

# Files with the block heads of both kinds, and copies with a byte order
# mark and with CRLF line breaks.
_TEXTS = [path.read_text(encoding="utf-8") for path in
          [*sorted(CORPUS.glob("*.pddl")), *sorted(FIXTURES.glob("tour_*.pddl"))]]
_TEXTS += ["\ufeff" + _TEXTS[1], _TEXTS[1].replace("\n", "\r\n")]
# Edits that put parens and keywords in comments, unclose or close a list,
# and give heads cases and non-ASCII letters.
_EDITS = ["(", ")", ";", "\n", " ", "\r\n", "\t", "; (:init (x)\n",
          "(;c (:init\n", "(; (:goal\n", ";(and\n", "(:INIT ", "(:Goal ",
          "(İ ", "(ΑΣ ", "(é ", ":action", "\ufeff", "(= (f a) 1) ",
          "(not (location a 1 2)) ", "(a (b (c)))", "(x (y ; c\n z))"]
# Keywords that are no atom, and case variants of block heads.
_KEYWORDS = ["", "a b", "(", ";x", ":init", ":INIT", ":goal", "and",
             ":action", "i\u0307", "ας", "ΑΣ", "ßx"]
# The regex trap: a head that a comment which ends too early would expose.
_TRAP = "(;c (:init\n  a)\n(define (problem p) (:init (b)))\n"


def _plain(node):
    """Every field of a node, recursively: nodes compare by identity."""
    return (*node[:2], tuple(map(_plain, node.children)), *node[3:])


@st.composite
def _edited(draw):
    text = draw(st.sampled_from(_TEXTS))
    for at, edit in draw(st.lists(st.tuples(st.integers(0, 1 << 16),
                                            st.sampled_from(_EDITS)),
                                  max_size=4)):
        at %= len(text) + 1
        text = text[:at] + edit + text[at:]
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]  # lists left open
    atoms = sorted({node.text for root in parse_sexpr(text)[0]
                    for node in root.walk() if node.kind is NodeKind.ATOM})
    keyword = draw(st.sampled_from(_KEYWORDS + atoms))
    return text, draw(st.sampled_from(
        [keyword, keyword.upper(), keyword.swapcase()]))


def _outcome(insert, *args):
    """The text an insert gives, or the message of its error."""
    try:
        return "text", insert(*args)
    except ConstructError as exc:
        return "error", str(exc)


@given(_edited())
@example((_TRAP, ":init"))
@example(("(x ;c\r\n (:goal y))", ":goal"))
@example(("(d (İ x) (ΑΣ y))", "i\u0307"))  # 'İ'.lower() is two characters
@settings(max_examples=300, deadline=None)
def test_read_construct_gives_the_nodes_of_the_tree(tmp_path_factory, case):
    text, keyword = case
    path = tmp_path_factory.getbasetemp() / "index.pddl"
    path.write_bytes(text.encode("utf-8"))
    tree = find_blocks(Document.read(path).forest, keyword)
    assert list(map(_plain, read_construct(keyword, path))) == \
        list(map(_plain, tree))


@given(_edited())
@example((_TRAP, ":init"))
@settings(max_examples=300, deadline=None)
def test_insert_gives_the_bytes_of_the_tree_splice(tmp_path_factory, case):
    text, keyword = case
    constructs = parse_constructs("(p a) (q)")
    expected = _outcome(tree_insert, text, keyword, constructs)
    assert _outcome(insert_construct, text, keyword, constructs) == expected
    path = tmp_path_factory.getbasetemp() / "insert.pddl"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(add_construct, path, keyword, constructs) == expected
    written = expected[1] if expected[0] == "text" else text
    assert path.read_bytes() == written.encode("utf-8")


@pytest.mark.parametrize("before", [" ", "\t", "\n", "\r\n", "\f", "\v", ")",
                                    " ; (c\n", "\n (l) "])
@pytest.mark.parametrize("last", ["b", "é", "(q)", "(= (f a) 1)", "(not (q))",
                                  "(at 1 (not (q)))"])
def test_insert_aligns_on_the_last_entry_after_any_separator(before, last):
    text = f"(define (problem p)\n  (:init x\n   (a) y z{before}{last}))\n"
    constructs = parse_constructs("(p a)")
    assert insert_construct(text, ":init", constructs) == \
        tree_insert(text, ":init", constructs)


@pytest.mark.parametrize("entries, matches", [
    ("(= (f a) 1) (not (p b)) (q c)", 1),
    ("(= (f a) 1) (not (p (b))) (q c)", 3),  # a fact three deep
    ("(= (f a) 1) (not (p ; c\n b)) (q c)", 6),  # a comment in a list
], ids=["two-deep", "three-deep", "comment"])
def test_the_scan_takes_lists_nested_two_deep_in_one_match(monkeypatch,
                                                           entries, matches):
    from mypddl import construct

    text, calls = f"(:init {entries})", []
    flat = construct._FLAT
    monkeypatch.setattr(construct, "_FLAT",
                        lambda *args: calls.append(args) or flat(*args))
    assert construct._scan(text, 0)[0] == len(text) - 1
    assert len(calls) == matches


@pytest.mark.parametrize("closed", [True, False])
def test_insert_into_a_block_nested_200000_deep(tmp_path, closed):
    from click.testing import CliRunner

    from mypddl.cli import main

    depth = 200_000
    # After a list whose comment holds an (:init head.
    text = "(;c (:init\n  a)\n(define (problem q)\n  (:init (a)\n         " \
        + "(a " * depth
    close = ")" * depth + "))\n" if closed else ""
    path = tmp_path / "deep.pddl"
    path.write_text(text + close, encoding="utf-8")
    started = time.perf_counter()
    result = CliRunner().invoke(main, ["insert", str(path), ":init", "(b)"])
    assert time.perf_counter() - started < 60
    assert result.exit_code == 0 and result.exception is None, result.output
    added = "\n         (b)"
    expected = (text + ")" * depth + added + "))\n" if closed
                else text + added)
    same = path.read_text(encoding="utf-8") == expected  # no diff of 1 MB
    assert same
