"""No input makes a command raise: every PDDL-reading subcommand, run on
byte-level mutations of the corpus files, exits 0 or 1 with its findings
and at most one error line on stderr, and ``insert --stdout`` keeps every
input byte outside its splice."""

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from mypddl.cli import main

from conftest import CORPUS

SOURCES = [path.read_bytes() for path in sorted(CORPUS.glob("*.pddl"))]
BOM, INVALID_UTF8 = b"\xef\xbb\xbf", [b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def _mutated(draw) -> bytes:
    """A corpus file with one to four byte-level mutations: a deleted run,
    a stray paren, a BOM, CRLF line ends, a NUL or invalid UTF-8."""
    data = draw(st.sampled_from(SOURCES))
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
            piece = {"paren": draw(st.sampled_from([b"(", b")"])),
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
    path, out = work / "input.pddl", work / "out"
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
    for argv in commands:
        result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1), (argv, result.output)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), argv
        # Findings are one line each, prefixed with the file; a domain
        # error is one line too, and the last.
        lines = result.stderr.splitlines()
        others = [i for i, line in enumerate(lines)
                  if not line.startswith(f"{path}:")]
        assert others in ([], [len(lines) - 1]), (argv, result.stderr)
        assert all(lines[i].startswith("Error: ") for i in others), argv
        if argv[0] == "insert" and result.exit_code == 0:
            assert _kept_outside_one_splice(data, result.stdout_bytes)
