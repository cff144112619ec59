"""Construct extraction and insertion: blocks out, constructs in, every
other byte untouched."""

import pytest

from mypddl.construct import (
    ConstructError,
    add_construct,
    insert_construct,
    parse_constructs,
    read_construct,
)
from mypddl.sexpr import parse_sexpr, serialize_node


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
