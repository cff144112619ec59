"""No input makes a command raise: every PDDL-reading subcommand, run on
byte-level mutations of the corpus files, exits 0 or 1 with its findings
and at most one error line on stderr. ``insert --stdout`` keeps every input
byte outside its splice, and so do in-place ``insert`` and ``distance``, read
back from the file they wrote. ``snippet``, ``new`` and ``plan``, run on
mutations of a user snippet, a project template and a planner config, exit
0 or 1 too, and an error is their one stderr line."""

import json
import shlex
import shutil
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main

from conftest import CORPUS

SOURCES = [path.read_bytes() for path in sorted(CORPUS.glob("*.pddl"))]
BOM, INVALID_UTF8 = b"\xef\xbb\xbf", [b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def _mutated(draw, sources=SOURCES, stray=(b"(", b")")) -> bytes:
    """One of ``sources`` (the corpus files by default) with one to four
    byte-level mutations: a deleted run, a stray byte (a paren by default),
    a BOM, CRLF line ends, a NUL or invalid UTF-8."""
    data = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["delete", "paren", "bom", "crlf", "nul",
                                     "utf8"]))
        if kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 40)):]
        elif kind == "bom":
            data = BOM + data
        elif kind == "crlf":
            data = data.replace(b"\n", b"\r\n")
        else:
            piece = {"paren": draw(st.sampled_from(stray)),
                     "nul": b"\x00",
                     "utf8": draw(st.sampled_from(INVALID_UTF8))}[kind]
            data = data[:at] + piece + data[at:]
    return data


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _kept_outside_one_splice(before: bytes, after: bytes) -> bool:
    """Whether ``after`` is ``before`` with bytes added at one offset."""
    prefix = next((i for i, (a, b) in enumerate(zip(before, after)) if a != b),
                  min(len(before), len(after)))
    suffix = next((i for i, (a, b) in enumerate(zip(reversed(before),
                                                    reversed(after)))
                   if a != b), min(len(before), len(after)))
    return len(after) >= len(before) and prefix + suffix >= len(before)


@given(_mutated(), st.sampled_from([":init", ":predicates", ":objects"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_no_mutation_makes_a_command_raise(work, data, keyword):
    path, out, copy = work / "input.pddl", work / "out", work / "copy.pddl"
    path.write_bytes(data)
    runner = CliRunner()
    commands = [
        ["check", str(path)],
        ["--json", "check", str(path)],
        ["tokens", str(path)],
        ["tokens", "--format", "html", str(path)],
        ["extract", str(path), keyword],
        ["insert", "--stdout", str(path), keyword, "(fresh a)"],
        ["distance", str(path), "--out", str(out / "dist.pddl")],
        ["diagram", str(path), "--no-render", "--out", str(out)],
    ]
    # Each rewrites a fresh copy of the input.
    in_place = [
        ["insert", str(copy), keyword, "(fresh a)"],
        ["distance", str(copy), "--in-place"],
    ]
    for argv in commands + in_place:
        source = copy if argv in in_place else path
        source.write_bytes(data)
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1), (argv, result.output)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), argv
        # Findings are one line each, prefixed with the file; a domain
        # error is one line too, and the last.
        lines = result.stderr.splitlines()
        others = [i for i, line in enumerate(lines)
                  if not line.startswith(f"{source}:")]
        assert others in ([], [len(lines) - 1]), (argv, result.stderr)
        assert all(lines[i].startswith("Error: ") for i in others), argv
        if "--stdout" in argv and result.exit_code == 0:
            assert _kept_outside_one_splice(data, result.stdout_bytes)
        if argv in in_place:
            written = copy.read_bytes()
            assert _kept_outside_one_splice(data, written), argv
            assert result.exit_code == 0 or written == data, argv


# The text files that ``snippet``, ``new`` and ``plan`` read, and the bytes
# that mean something in them.
SNIPPET = b";; snippet: goal block\n\n(:goal (and (${1:pred-name} ${2:?x})))\n"
TEMPLATE = b"# {{name}}\n\nInformal description of the {{name}} domain.\n"
# A planner that exits 0 at once and writes nothing.
CONFIG = (f'# a stub planner\ntimeout_seconds = 10\ncommand = '
          f'"{shlex.quote(sys.executable)} -S -c pass {{domain}} {{problem}}"'
          f'\n').encode()
TEXT_STRAY = (b"(", b")", b'"', b"'", b"\\", b"{", b"}", b"$", b"=", b"#",
              b"\n")


def _assert_clean(result, argv) -> None:
    """Exit 0 or 1 without an exception; an error is the only stderr line.
    Only ``plan`` may print other lines there: its planner's stderr."""
    assert result.exit_code in (0, 1), (argv, result.output)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), argv
    lines = result.stderr.splitlines()
    if any(line.startswith("Error: ") for line in lines):
        assert len(lines) == 1, (argv, result.stderr)
    elif argv[0] != "plan":
        assert (result.exit_code, lines) == (0, []), (argv, result.stderr)


@given(_mutated([SNIPPET], TEXT_STRAY))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_no_snippet_file_makes_snippet_raise(work, data):
    snippets_dir = work / "snippets"
    snippets_dir.mkdir(exist_ok=True)
    (snippets_dir / "goal.snippet").write_bytes(data)
    for argv in (["snippet", "--snippets-dir", str(snippets_dir), "goal"],
                 ["snippet", "--snippets-dir", str(snippets_dir), "--list"]):
        _assert_clean(CliRunner().invoke(main, argv), argv)


@given(_mutated([TEMPLATE], TEXT_STRAY))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_no_template_file_makes_new_raise(work, data):
    templates, out = work / "templates", work / "projects"
    templates.mkdir(exist_ok=True)
    (templates / "README.md").write_bytes(data)
    argv = ["new", "proj", "--dir", str(out), "--templates", str(templates)]
    result = CliRunner().invoke(main, argv)
    _assert_clean(result, argv)
    # A failed ``new`` leaves nothing behind.
    assert result.exit_code == 0 or not (out / "proj").exists()
    shutil.rmtree(out / "proj", ignore_errors=True)


@given(_mutated([CONFIG], TEXT_STRAY))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_no_planner_config_makes_plan_raise(work, data):
    project = work / "plan"
    project.mkdir(exist_ok=True)
    (project / "domain.pddl").write_bytes(b"(define (domain d))")
    (project / "p01.pddl").write_bytes(b"(define (problem p) (:domain d))")
    (project / "mypddl.toml").write_bytes(data)
    argv = ["plan", "--domain", str(project / "domain.pddl"),
            "--problem", str(project / "p01.pddl"),
            "--config", str(project / "mypddl.toml")]
    runner = CliRunner()
    # The planner's solution directory is relative to the working directory.
    with runner.isolated_filesystem(temp_dir=project):
        _assert_clean(runner.invoke(main, argv), argv)


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "unclosed"])
def test_a_domain_nested_100000_deep_is_read_cleanly(tmp_path, closed):
    """The tape, the scope walk and the model read any depth: each command
    exits 0 or 1, and the token texts tile the file."""
    depth = 100_000
    text = ("(define (domain d)\n  (:predicates (p))\n  (:action a "
            ":parameters ()\n    :precondition " + "(and " * depth + "(p)")
    if closed:
        text += ")" * depth + "))\n"
    path, out = tmp_path / "deep.pddl", tmp_path / "out"
    path.write_text(text, encoding="utf-8")
    runner = CliRunner()
    for argv in (["check", str(path)], ["--json", "check", str(path)],
                 ["tokens", str(path)],
                 ["tokens", str(path), "--format", "html"],
                 ["diagram", str(path), "--no-render", "--out", str(out)]):
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1), (argv, result.output)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), argv
        if argv[0] == "tokens" and len(argv) == 2:
            texts = [token["text"] for token in json.loads(result.stdout)]
            assert "".join(texts) == text
