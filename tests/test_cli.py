"""End-to-end CLI tests through click's runner."""

import gc
import html
import json
import os
import re
import stat
import sys

import pytest
from click.testing import CliRunner

from mypddl import highlight
from mypddl.cli import main
from mypddl.construct import parse_constructs
from mypddl.sexpr import Document

from conftest import CORPUS, FIXTURES, corpus_text
from references import tree_augment, tree_extract, tree_insert

PY = sys.executable


@pytest.fixture
def runner():
    return CliRunner()


def test_no_arguments_is_usage_error(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2


def test_unknown_subcommand_is_usage_error(runner):
    result = runner.invoke(main, ["frobnicate"])
    assert result.exit_code == 2


@pytest.mark.parametrize("subcommand", [
    "new", "snippet", "tokens", "diagram", "extract", "insert", "distance",
    "plan", "check",
])
def test_every_subcommand_has_help(runner, subcommand):
    result = runner.invoke(main, [subcommand, "--help"])
    assert result.exit_code == 0
    assert "Usage" in result.output


def test_check_valid_domain(runner):
    result = runner.invoke(main, ["check", str(CORPUS / "splisus.pddl")])
    assert result.exit_code == 0
    assert "0 errors" in result.output


def test_check_broken_domain(runner):
    result = runner.invoke(main, ["check", str(CORPUS / "coffee.pddl")])
    assert result.exit_code == 1
    summary = [l for l in result.output.splitlines() if "invalid regions" in l]
    assert summary
    count = int(summary[-1].rsplit(",", 1)[1].split()[0])
    assert count >= 12
    # reported positions ascend (deterministic, sorted by span start)
    lines = [int(l.split(":")[1]) for l in result.output.splitlines()
             if ": invalid:" in l]
    assert lines == sorted(lines)


def test_check_quiet_prints_summary_only(runner):
    result = runner.invoke(main, [
        "--quiet", "check", str(CORPUS / "coffee.pddl")])
    assert result.exit_code == 1
    lines = [l for l in result.output.splitlines() if l.strip()]
    assert len(lines) == 1
    assert "invalid regions" in lines[0]


def test_check_multiple_files_any_bad_fails(runner):
    result = runner.invoke(main, [
        "check", str(CORPUS / "splisus.pddl"), str(CORPUS / "store.pddl")])
    assert result.exit_code == 0
    result = runner.invoke(main, [
        "check", str(CORPUS / "splisus.pddl"), str(CORPUS / "coffee.pddl")])
    assert result.exit_code == 1


def test_check_json_output(runner):
    result = runner.invoke(main, ["--json", "check",
                                  str(CORPUS / "logistics.pddl")])
    assert result.exit_code == 1
    reports = json.loads(result.output)
    assert len(reports) == 1
    assert len(reports[0]["invalid_regions"]) >= 12
    first = reports[0]["invalid_regions"][0]
    assert {"start", "end", "line", "col", "text"} <= set(first)


def _check_text(report: dict) -> tuple[str, str]:
    """The stderr and stdout that ``check`` prints for one ``--json check``
    report: a line per diagnostic, a line per invalid region with its text
    cut to the whole characters of its first 37 UTF-8 bytes and '...' if
    longer than 40 bytes, then the summary."""
    path = report["file"]
    err = "".join(f"{path}:{d['line']}:{d['col']}: {d['severity']}: "
                  f"{d['message']} [{d['code']}]\n"
                  for d in report["diagnostics"])
    out = ""
    for region in report["invalid_regions"]:
        excerpt = region["text"]
        if len(excerpt.encode("utf-8")) > 40:
            excerpt = excerpt[:37]
            while len(excerpt.encode("utf-8")) > 37:
                excerpt = excerpt[:-1]
            excerpt += "..."
        out += f"{path}:{region['line']}:{region['col']}: invalid: {excerpt}\n"
    errors = sum(d["severity"] == "error" for d in report["diagnostics"])
    out += (f"{path}: {errors} errors, "
            f"{len(report['invalid_regions'])} invalid regions\n")
    return err, out


# A parse diagnostic (the stray ')') and an invalid region longer than 40
# bytes, with a non-ASCII character in it.
_LONG_REGION = ("(define (domain d)\n  (:requirements :strips\n"
                "    (café :typing :adl :fluents :equality :negative))))\n")


@pytest.mark.parametrize("name", [
    *(f"corpus/{p.name}" for p in sorted(CORPUS.glob("*.pddl"))),
    *(f"fixtures/{p.name}" for p in sorted(FIXTURES.glob("tour_*.pddl"))),
    "long-region",
])
def test_check_prints_its_json_records_as_text(runner, tmp_path, name):
    if name == "long-region":
        path = tmp_path / "long.pddl"
        path.write_text(_LONG_REGION, encoding="utf-8")
    else:
        path = CORPUS.parent / name
    reports = json.loads(runner.invoke(main, ["--json", "check",
                                              str(path)]).stdout)
    if name == "long-region":
        [report] = reports
        assert report["diagnostics"]
        assert any(len(r["text"].encode("utf-8")) > 40
                   for r in report["invalid_regions"])
    result = runner.invoke(main, ["check", str(path)])
    assert (result.stderr, result.stdout) == _check_text(reports[0])


def test_tokens_json(runner, tmp_path):
    target = tmp_path / "mini.pddl"
    target.write_text("(define (domain d))", encoding="utf-8")
    result = runner.invoke(main, ["tokens", str(target)])
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert len(records) == 9


def test_tokens_html(runner, tmp_path):
    target = tmp_path / "mini.pddl"
    target.write_text("(define (domain d))", encoding="utf-8")
    result = runner.invoke(main, ["tokens", str(target), "--format", "html"])
    assert result.exit_code == 0
    assert result.output.startswith("<!DOCTYPE html>")


def test_tokens_exit_code_policy(runner):
    coffee = str(CORPUS / "coffee.pddl")
    assert runner.invoke(main, ["tokens", coffee]).exit_code == 0
    assert runner.invoke(
        main, ["tokens", coffee, "--fail-on-invalid"]).exit_code == 1
    splisus = str(CORPUS / "splisus.pddl")
    assert runner.invoke(
        main, ["tokens", splisus, "--fail-on-invalid"]).exit_code == 0


def test_extract_prints_blocks(runner, gary_problem):
    result = runner.invoke(main, ["extract", str(gary_problem), ":goal"])
    assert result.exit_code == 0
    assert result.output == "(:goal (exploited magicfailureapp))\n"


def test_extract_no_match_prints_nothing(runner, gary_problem):
    result = runner.invoke(main, ["extract", str(gary_problem), ":nope"])
    assert result.exit_code == 0
    assert result.output == ""


def test_insert_in_place(runner, gary_problem):
    result = runner.invoke(main, [
        "insert", str(gary_problem), ":init", "(hungry gisela)"])
    assert result.exit_code == 0
    assert "(hungry gisela)" in gary_problem.read_text(encoding="utf-8")


def test_insert_stdout_leaves_file_alone(runner, gary_problem):
    before = gary_problem.read_text(encoding="utf-8")
    result = runner.invoke(main, [
        "insert", str(gary_problem), ":init", "(hungry gisela)", "--stdout"])
    assert result.exit_code == 0
    assert "(hungry gisela)" in result.output
    assert gary_problem.read_text(encoding="utf-8") == before


def test_insert_missing_block_fails(runner, gary_problem):
    result = runner.invoke(main, [
        "insert", str(gary_problem), ":nosuch", "(a)"])
    assert result.exit_code == 1


def test_distance_writes_dist_copy(runner, gary_pizza_problem):
    result = runner.invoke(main, ["distance", str(gary_pizza_problem)])
    assert result.exit_code == 0
    out = gary_pizza_problem.with_name("gary_pizza_problem_dist.pddl")
    assert out.is_file()
    text = out.read_text(encoding="utf-8")
    assert "(distance gary pizza 2.2361)" in text
    # input untouched
    assert "(distance" not in gary_pizza_problem.read_text(encoding="utf-8")


def test_distance_in_place(runner, gary_pizza_problem):
    result = runner.invoke(main, [
        "distance", str(gary_pizza_problem), "--in-place"])
    assert result.exit_code == 0
    assert "(distance pizza pizza 0.0)" in \
        gary_pizza_problem.read_text(encoding="utf-8")


@pytest.mark.parametrize("via_link", [False, True])
@pytest.mark.parametrize("command,wrote", [
    (["insert", "{}", ":init", "(hungry gary)"], "(hungry gary)"),
    (["distance", "{}", "--in-place"], "(distance gary pizza 2.2361)"),
])
def test_a_rewrite_keeps_the_mode_and_the_symlink(runner, tmp_path, command,
                                                  wrote, via_link):
    target = tmp_path / "real.pddl"
    target.write_text(corpus_text("gary_pizza_problem.pddl"), encoding="utf-8")
    target.chmod(0o644)
    link = tmp_path / "link.pddl"
    link.symlink_to(target.name)
    path = link if via_link else target
    result = runner.invoke(main, [arg.format(path) for arg in command])
    assert result.exit_code == 0, result.output
    assert link.is_symlink() and os.readlink(link) == target.name
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    assert wrote in target.read_text(encoding="utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.pddl",
                                                         "real.pddl"]


@pytest.mark.parametrize("command", [
    ["insert", "{}", ":init", "(hungry gary)"], ["distance", "{}", "--in-place"],
])
def test_a_failed_write_keeps_the_file_and_is_one_error_line(
        runner, gary_pizza_problem, monkeypatch, command):
    from mypddl import construct

    def fail(fd):
        raise OSError(28, "No space left on device")

    before = gary_pizza_problem.read_bytes()
    monkeypatch.setattr(construct.os, "fsync", fail)
    result = runner.invoke(main, [arg.format(gary_pizza_problem)
                                  for arg in command])
    assert result.exit_code == 1
    assert result.stderr == (f"Error: cannot write {gary_pizza_problem}: "
                             "No space left on device\n")
    assert gary_pizza_problem.read_bytes() == before
    assert [p.name for p in gary_pizza_problem.parent.iterdir()] == \
        [gary_pizza_problem.name]


@pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                    reason="only root may give a file to another owner")
@pytest.mark.parametrize("command", [
    ["insert", "{}", ":init", "(hungry gary)"], ["distance", "{}", "--in-place"],
])
def test_a_rewrite_by_root_keeps_the_owner_and_group(runner, tmp_path,
                                                     command):
    target = tmp_path / "p.pddl"
    target.write_text(corpus_text("gary_pizza_problem.pddl"), encoding="utf-8")
    target.chmod(0o640)
    os.chown(target, 65534, 65534)
    result = runner.invoke(main, [arg.format(target) for arg in command])
    assert result.exit_code == 0, result.output
    info = target.stat()
    assert (info.st_uid, info.st_gid) == (65534, 65534)
    assert stat.S_IMODE(info.st_mode) == 0o640


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_distance_out_makes_a_file_of_the_default_mode(runner, tmp_path,
                                                        umask):
    problem = tmp_path / "p.pddl"
    problem.write_text(corpus_text("gary_pizza_problem.pddl"), encoding="utf-8")
    problem.chmod(0o600)
    out = tmp_path / "new.pddl"
    old = os.umask(umask)
    try:
        result = runner.invoke(main, ["distance", str(problem), "--out",
                                      str(out)])
    finally:
        os.umask(old)
    assert result.exit_code == 0, result.output
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask


def test_distance_custom_predicate(runner, tmp_path):
    problem = tmp_path / "p.pddl"
    problem.write_text("(define (problem p) (:domain d)\n"
                       "  (:init (pos a 0) (pos b 4))\n  (:goal (g)))",
                       encoding="utf-8")
    result = runner.invoke(main, [
        "distance", str(problem), "--predicate", "pos"])
    assert result.exit_code == 0
    text = (tmp_path / "p_dist.pddl").read_text(encoding="utf-8")
    assert "(distance a b 4.0)" in text


# -- the commands against the whole file's tree ------------------------------

CORPUS_FILES = sorted(CORPUS.glob("*.pddl"))


def _pizza(tmp_path, newline):
    """``gary_pizza_problem.pddl`` with its line breaks made ``newline``."""
    path = tmp_path / "pizza.pddl"
    path.write_bytes((CORPUS / "gary_pizza_problem.pddl").read_bytes()
                     .replace(b"\n", newline))
    return path


@pytest.mark.parametrize("keyword", [":action", ":init", ":goal", "and"])
@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda path: path.name)
def test_extract_prints_the_blocks_of_the_tree(runner, path, keyword):
    result = runner.invoke(main, ["extract", str(path), keyword])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == tree_extract(
        path.read_bytes().decode("utf-8"), keyword).encode("utf-8")


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"], ids=["lf", "crlf"])
def test_insert_stdout_prints_the_splice_of_the_tree(runner, tmp_path,
                                                      newline):
    path = _pizza(tmp_path, newline)
    result = runner.invoke(main, ["insert", "--stdout", str(path), ":init",
                                  "(p a)"])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == tree_insert(
        path.read_bytes().decode("utf-8"), ":init",
        parse_constructs("(p a)")).encode("utf-8")


# A comment holding an ANSI escape sequence, which ``click.echo`` strips from
# a stream that is not a terminal, as the runner's is.
RED = b"; \x1b[31mred\x1b[0m\n"
RED_PROBLEM = (b"(define (problem p) (:domain d)\n  (:init " + RED
               + b"    (at a))\n  (:goal (at a)))\n")


@pytest.mark.parametrize("command", ["insert", "extract", "tokens",
                                     "snippet"])
def test_an_escape_sequence_in_a_comment_is_printed_byte_for_byte(
        runner, tmp_path, command):
    path = tmp_path / "p.pddl"
    path.write_bytes(RED_PROBLEM)
    (tmp_path / "red.snippet").write_bytes(b"(p) " + RED)
    args, expected = {
        "insert": (["insert", "--stdout", str(path), ":init", "(at b)"],
                   RED_PROBLEM.replace(b"(at a))", b"(at a)\n    (at b))", 1)),
        "extract": (["extract", str(path), ":init"],
                    b"(:init " + RED + b"    (at a))\n"),
        "tokens": (["tokens", str(path), "--format", "html"], RED_PROBLEM),
        "snippet": (["snippet", "--snippets-dir", str(tmp_path), "red"],
                    b"(p) " + RED),
    }[command]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    out = result.stdout_bytes
    if command == "tokens":  # the text of the HTML's body is the file
        body = out.decode("utf-8").split("<pre>", 1)[1].split("</pre>")[0]
        out = html.unescape(re.sub("<[^>]*>", "", body)).encode("utf-8")
    assert out == expected


@pytest.mark.parametrize("name", [*(path.name for path in CORPUS_FILES),
                                  "crlf"])
def test_distance_writes_the_splice_of_the_tree(runner, tmp_path, name):
    path = _pizza(tmp_path, b"\r\n") if name == "crlf" else CORPUS / name
    out = tmp_path / "out.pddl"
    result = runner.invoke(main, ["distance", str(path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    _, text, _ = tree_augment(path.read_bytes().decode("utf-8"),
                              "location")
    assert out.read_bytes() == text.encode("utf-8")


def test_token_and_region_offsets_are_the_bytes_of_a_non_ascii_file(runner):
    path = CORPUS / "coffee.pddl"
    data = path.read_bytes()
    assert not data.isascii()
    result = runner.invoke(main, ["tokens", str(path)])
    assert result.exit_code == 0, result.output
    tokens = json.loads(result.stdout)
    assert "".join(t["text"] for t in tokens).encode("utf-8") == data
    for t in tokens:
        text = t["text"].encode("utf-8")
        assert t["end"] - t["start"] == len(text), t
        assert data[t["start"]:t["end"]] == text, t
    result = runner.invoke(main, ["--json", "check", str(path)])
    assert result.exit_code == 1, result.output
    [report] = json.loads(result.stdout)
    regions = report["invalid_regions"]
    assert regions
    for region in regions:
        assert data[region["start"]:region["end"]].decode("utf-8") == \
            region["text"], region


def test_new_project(runner, tmp_path):
    result = runner.invoke(main, ["new", "rover", "--dir", str(tmp_path)])
    assert result.exit_code == 0
    assert (tmp_path / "rover" / "domain.pddl").is_file()
    again = runner.invoke(main, ["new", "rover", "--dir", str(tmp_path)])
    assert again.exit_code == 1


def test_new_takes_its_templates_from_a_directory(runner, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "README.md").write_text("custom {{name}}\n",
                                         encoding="utf-8")
    result = runner.invoke(main, ["new", "rover", "--dir", str(tmp_path),
                                  "--templates", str(templates)])
    assert result.exit_code == 0
    assert (tmp_path / "rover" / "README.md").read_text(encoding="utf-8") \
        == "custom rover\n"
    assert (tmp_path / "rover" / "domain.pddl").is_file()


def test_new_with_a_missing_template_directory_fails(runner, tmp_path):
    absent = tmp_path / "absent"
    result = runner.invoke(main, ["new", "rover", "--dir", str(tmp_path),
                                  "--templates", str(absent)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: template directory {absent} not found\n"
    assert not (tmp_path / "rover").exists()


def test_a_failed_new_removes_the_parents_it_made_and_no_others(runner,
                                                                  tmp_path):
    """A template directory ``domain.pddl/`` collides with the built-in
    ``domain.pddl`` file, so the tree cannot be made: the parents that
    ``--dir`` named and ``new`` created go too, the one that existed stays."""
    templates = tmp_path / "templates"
    (templates / "domain.pddl").mkdir(parents=True)
    (templates / "domain.pddl" / "x").write_text("x\n", encoding="utf-8")
    parent = tmp_path / "a" / "b"
    result = runner.invoke(main, ["new", "rover", "--dir", str(parent),
                                  "--templates", str(templates)])
    assert result.exit_code == 1
    assert len(result.stderr.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["templates"]
    (tmp_path / "a").mkdir()
    result = runner.invoke(main, ["new", "rover", "--dir", str(parent),
                                  "--templates", str(templates)])
    assert result.exit_code == 1
    assert (tmp_path / "a").is_dir() and not parent.exists()


def test_new_copies_a_crlf_template_with_its_crlf_bytes(runner, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "README.md").write_bytes(b"# {{name}}\r\n\r\nnotes\r\n")
    result = runner.invoke(main, ["new", "rover", "--dir", str(tmp_path),
                                  "--templates", str(templates)])
    assert result.exit_code == 0
    assert (tmp_path / "rover" / "README.md").read_bytes() == \
        b"# rover\r\n\r\nnotes\r\n"


@pytest.mark.parametrize("collision,failed,strerror", [
    ("domains", "domains", "Is a directory"),
    ("domain.pddl/x", "domain.pddl", "File exists"),
])
def test_new_with_a_colliding_template_fails_and_leaves_nothing(
        runner, tmp_path, collision, failed, strerror):
    templates = tmp_path / "templates"
    (templates / collision).parent.mkdir(parents=True, exist_ok=True)
    (templates / collision).write_bytes(b"x\n")
    root = tmp_path / "proj"
    result = runner.invoke(main, ["new", "proj", "--dir", str(tmp_path),
                                  "--templates", str(templates)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == (f"Error: cannot create directory {root}: "
                             f"{strerror} at {root / failed}\n")
    assert not root.exists()


def test_new_with_a_template_that_is_not_utf8_fails(runner, tmp_path):
    templates = tmp_path / "templates"
    templates.mkdir()
    (templates / "logo.png").write_bytes(b"\x89PNG\r\n\x1a\n")
    result = runner.invoke(main, ["new", "proj", "--dir", str(tmp_path),
                                  "--templates", str(templates)])
    assert result.exit_code == 1
    assert result.stderr == \
        f"Error: {templates / 'logo.png'}: not valid UTF-8 at byte 0\n"
    assert not (tmp_path / "proj").exists()


@pytest.mark.parametrize("quiet", [False, True])
def test_a_snippet_that_shadows_a_builtin_warns_unless_quiet(runner, tmp_path,
                                                            quiet):
    (tmp_path / "action.snippet").write_text("(my action body)",
                                             encoding="utf-8")
    result = runner.invoke(main, [*(["--quiet"] if quiet else []), "snippet",
                                  "--snippets-dir", str(tmp_path), "action"])
    assert result.exit_code == 0
    assert result.stdout == "(my action body)\n"
    assert result.stderr == ("" if quiet else
                             "warning: user snippet action.snippet shadows "
                             "built-in 'action'\n")


def test_snippet_without_a_trigger_is_a_usage_error(runner):
    result = runner.invoke(main, ["snippet"])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == \
        "Error: provide a trigger or use --list"


def test_snippet_p2(runner):
    result = runner.invoke(main, ["snippet", "p2"])
    assert result.exit_code == 0
    assert result.output == "(pred-name ?x - object ?y - object)\n"


def test_snippet_list(runner):
    result = runner.invoke(main, ["snippet", "--list"])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 7


def test_snippet_list_skips_a_directory_named_like_a_snippet(runner,
                                                           tmp_path):
    (tmp_path / "bar.snippet").mkdir()
    result = runner.invoke(main, ["snippet", "--snippets-dir", str(tmp_path),
                                  "--list"])
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 7
    assert "bar" not in result.stdout


def test_a_user_snippet_that_is_not_utf8_fails(runner, tmp_path):
    (tmp_path / "cafe.snippet").write_bytes(b"(caf\xe9)\n")
    result = runner.invoke(main, ["snippet", "--snippets-dir", str(tmp_path),
                                  "p2"])
    assert result.exit_code == 1
    assert result.stderr == \
        f"Error: {tmp_path / 'cafe.snippet'}: not valid UTF-8 at byte 4\n"


def test_snippet_unknown_trigger(runner):
    result = runner.invoke(main, ["snippet", "zzz9"])
    assert result.exit_code == 1


def test_diagram_revisions(runner, tmp_path):
    domain = tmp_path / "splisus.pddl"
    domain.write_text(corpus_text("splisus.pddl"), encoding="utf-8")
    out = tmp_path / "site"
    first = runner.invoke(main, [
        "diagram", str(domain), "--out", str(out), "--no-render"])
    assert first.exit_code == 0
    second = runner.invoke(main, [
        "diagram", str(domain), "--out", str(out), "--no-render"])
    assert second.exit_code == 0
    assert (out / "dot" / "splisus_1.dot").is_file()
    assert (out / "dot" / "splisus_2.dot").is_file()
    assert (out / "dot" / "splisus_1.dot").read_bytes() == \
        (out / "dot" / "splisus_2.dot").read_bytes()


def test_diagram_without_renderer_degrades_to_dot_only(runner, tmp_path):
    domain = tmp_path / "d.pddl"
    domain.write_text("(define (domain d) (:types a - object))",
                      encoding="utf-8")
    out = tmp_path / "out"
    result = runner.invoke(main, ["diagram", str(domain), "--out", str(out)])
    assert result.exit_code == 0
    assert (out / "dot" / "d_1.dot").is_file()


def _renderer(path, mode=0o755):
    """A stand-in for ``dot``: it writes the file after ``-o``."""
    path.write_text(f"#!{PY}\nimport sys\n"
                    "open(sys.argv[sys.argv.index('-o') + 1], 'wb')"
                    ".write(b'png')\n", encoding="utf-8")
    path.chmod(mode)
    return path


@pytest.mark.skipif(os.name != "posix", reason="runs a script by its #! line")
@pytest.mark.parametrize("on_path", [False, True])
def test_diagram_prints_the_image_it_rendered(runner, tmp_path, monkeypatch,
                                              on_path):
    domain = tmp_path / "d.pddl"
    domain.write_text("(define (domain d) (:types a - object))",
                      encoding="utf-8")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    renderer = _renderer(bin_dir / ("dot" if on_path else "render"))
    if on_path:
        monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "diagram", str(domain), "--out", str(out),
        *([] if on_path else ["--renderer", str(renderer)])])
    assert result.exit_code == 0, result.output
    image = out / "diagrams" / "d_1.png"
    assert result.stdout.splitlines()[-1] == f"  {image}"
    assert image.read_bytes() == b"png"


@pytest.mark.skipif(os.name != "posix", reason="the execute bit is POSIX")
def test_diagram_with_a_renderer_that_cannot_run_fails(runner, tmp_path):
    domain = tmp_path / "d.pddl"
    domain.write_text("(define (domain d))", encoding="utf-8")
    renderer = _renderer(tmp_path / "render", mode=0o644)
    result = runner.invoke(main, ["diagram", str(domain), "--out",
                                  str(tmp_path / "out"), "--renderer",
                                  str(renderer)])
    assert result.exit_code == 1
    quoted = re.escape(repr(str(renderer)))
    assert re.fullmatch(rf"Error: cannot run renderer {quoted}: "
                        r"\[Errno 13\] [^\n]*\n", result.stderr)


def test_distance_in_place_and_out_is_a_usage_error(runner, gary_pizza_problem,
                                                    tmp_path):
    before = gary_pizza_problem.read_bytes()
    result = runner.invoke(main, ["distance", str(gary_pizza_problem),
                                  "--in-place", "--out",
                                  str(tmp_path / "x.pddl")])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == \
        "Error: --in-place and --out are mutually exclusive"
    assert gary_pizza_problem.read_bytes() == before
    assert not (tmp_path / "x.pddl").exists()


def test_plan_via_cli(runner, tmp_path):
    domain = tmp_path / "domain.pddl"
    problem = tmp_path / "p01.pddl"
    domain.write_text("(define (domain d))", encoding="utf-8")
    problem.write_text("(define (problem p) (:domain d) (:goal (g)))",
                       encoding="utf-8")
    stub = FIXTURES / "stub_planner.py"
    config = tmp_path / "mypddl.toml"
    config.write_text(
        f'command = "{PY} {stub} {{domain}} {{problem}} {{solution_dir}}"\n'
        f'solution_dir = "{(tmp_path / "solutions").as_posix()}"\n',
        encoding="utf-8")
    result = runner.invoke(main, [
        "plan", "--domain", str(domain), "--problem", str(problem),
        "--config", str(config)])
    assert result.exit_code == 0
    assert "solution:" in result.output
    assert (tmp_path / "solutions" / "plan.txt").is_file()


def _plan(runner, tmp_path, script, timeout=None):
    """``plan`` with a planner that runs ``script`` and writes no
    solution."""
    for name, text in [("domain.pddl", "(define (domain d))"),
                       ("p01.pddl", "(define (problem p) (:domain d))"),
                       ("planner.py", script)]:
        (tmp_path / name).write_text(text, encoding="utf-8")
    config = tmp_path / "mypddl.toml"
    config.write_text(
        f'command = "{PY} {tmp_path / "planner.py"} {{domain}} {{problem}}"\n'
        f'solution_dir = "{(tmp_path / "solutions").as_posix()}"\n'
        + (f"timeout_seconds = {timeout}\n" if timeout else ""),
        encoding="utf-8")
    return runner.invoke(main, [
        "plan", "--domain", str(tmp_path / "domain.pddl"),
        "--problem", str(tmp_path / "p01.pddl"), "--config", str(config)])


def test_plan_echoes_the_planners_stderr_and_a_missing_solution(runner,
                                                                 tmp_path):
    result = _plan(runner, tmp_path,
                   "import sys; print('searching'); "
                   "print('no plan', file=sys.stderr)")
    assert result.exit_code == 0
    assert result.stdout == "searching\nno new solution file detected\n"
    assert result.stderr == "no plan\n"


def test_plan_fails_when_the_planner_fails(runner, tmp_path):
    result = _plan(runner, tmp_path, "raise SystemExit(3)")
    assert result.exit_code == 1
    assert result.stdout == "no new solution file detected\n"


def test_plan_fails_when_the_planner_times_out(runner, tmp_path):
    result = _plan(runner, tmp_path, "import time; time.sleep(30)", timeout=1)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert re.fullmatch(r"planner timed out after 1\.\ds\n", result.stderr)


def test_plan_missing_config_fails(runner, tmp_path):
    result = runner.invoke(main, [
        "plan", "--config", str(tmp_path / "absent.toml")])
    assert result.exit_code == 1


def test_plan_with_a_config_that_is_not_utf8_fails(runner, tmp_path):
    config = tmp_path / "mypddl.toml"
    config.write_bytes(b"# caf\xe9\ncommand = \"solve {domain} {problem}\"\n")
    result = runner.invoke(main, ["plan", "--config", str(config)])
    assert result.exit_code == 1
    assert result.stderr == f"Error: {config}: not valid UTF-8 at byte 5\n"


@pytest.mark.parametrize("tail,message", [
    (b' "unclosed', "No closing quotation"),
    (b" a\0b", "embedded null byte"),
])
def test_plan_with_a_template_that_cannot_run_fails(runner, tmp_path, tail,
                                                    message):
    for name in ("domain.pddl", "p01.pddl"):
        (tmp_path / name).write_text("(define (domain d))", encoding="utf-8")
    config = tmp_path / "mypddl.toml"
    config.write_bytes(f"command = {PY} -c pass {{domain}} {{problem}}"
                       .encode() + tail + b"\n")
    result = runner.invoke(main, [
        "plan", "--domain", str(tmp_path / "domain.pddl"),
        "--problem", str(tmp_path / "p01.pddl"), "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ")
    assert result.stderr.endswith(f"{message}\n")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("data,exit_code", [
    (b"(define (domain d))", 0),
    (b"; caf\xe9 is Latin-1\n(define (domain d))", 1),  # a MyPddlError
])
def test_a_command_restores_the_gc_state(runner, tmp_path, enabled, data,
                                         exit_code):
    path = tmp_path / "d.pddl"
    path.write_bytes(data)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = runner.invoke(main, ["check", str(path)])
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert result.exit_code == exit_code, result.output
    assert after is enabled


def test_a_command_runs_with_the_gc_paused(runner, monkeypatch):
    seen = []
    scope_columns = highlight.scope_columns

    def spy(source):
        seen.append(gc.isenabled())
        return scope_columns(source)

    monkeypatch.setattr(highlight, "scope_columns", spy)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        result = runner.invoke(main, ["check", str(CORPUS / "splisus.pddl")])
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert result.exit_code == 0, result.output
    assert seen == [False]
    assert after is True


@pytest.mark.parametrize("args", [
    ["check"],  # exits through sys.exit
    ["insert", "--stdout", ":init", "(p a)"],  # a MyPddlError: no :init
], ids=["check", "insert"])
def test_a_failing_command_frees_its_trees_before_the_gc_resumes(
        runner, tmp_path, monkeypatch, args):
    # Were the document alive when the collector comes back on, its first
    # young collection would scan the whole tree.
    path = tmp_path / "bad.pddl"
    path.write_text("(define (domain d) (:requirements :strips)) ?stray",
                    encoding="utf-8")
    alive = []
    enable = gc.enable

    def spy():
        alive.append(sum(type(o) is Document
                         and getattr(o, "path", None) == path
                         for o in gc.get_objects()))
        enable()

    monkeypatch.setattr(gc, "enable", spy)
    was_enabled = gc.isenabled()
    enable()
    try:
        result = runner.invoke(main, args[:1] + [str(path)] + args[1:])
    finally:
        (enable if was_enabled else gc.disable)()
    assert result.exit_code == 1, result.output
    assert alive == [0], (result.output, result.exception)
