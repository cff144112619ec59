"""Command-line entry point: one executable, one subcommand per tool.

Exit codes: 0 success, 1 domain error (broken input, failed planner, ...),
2 usage error. Diagnostics print as ``file:line:col: severity: message``
with positions derived from byte spans (columns count bytes, not glyphs).
"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

import click

from . import construct, distance, highlight, snippets, typegraph
from .sexpr import (
    Document,
    MyPddlError,
    ParseDiagnostic,
    Severity,
    Span,
    excerpt,
    gc_paused,
    serialize_node,
)


def _report(path: Path, doc: Document, diagnostics: Sequence[ParseDiagnostic],
            regions: Sequence[Span] = ()) -> dict:
    """The findings on one file as ``--json check`` prints them: its
    diagnostics, sorted by span, and its invalid regions, each positioned
    once by its span, 1-based line and byte column."""
    def record(span: Span, **fields) -> dict:
        line, col = doc.line_col(span.start)
        return {"start": span.start, "end": span.end, "line": line,
                "col": col, **fields}
    diagnostics = sorted(diagnostics, key=attrgetter("span"))
    return {"file": str(path),
            "diagnostics": [record(d.span, severity=d.severity.value,
                                   message=d.message, code=d.code)
                            for d in diagnostics],
            "invalid_regions": [record(r, text=doc.data[r.start:r.end].decode(
                "utf-8", errors="replace")) for r in regions]}


def _print_report(report: dict, quiet: bool) -> None:
    """A report as text: ``file:line:col: severity: message [code]`` per
    diagnostic on stderr, then ``file:line:col: invalid: excerpt`` per
    region, an excerpt over 40 bytes cut as `excerpt` cuts it."""
    if quiet:
        return
    path = report["file"]
    for d in report["diagnostics"]:
        click.echo(f"{path}:{d['line']}:{d['col']}: {d['severity']}: "
                   f"{d['message']} [{d['code']}]", err=True)
    for r in report["invalid_regions"]:
        click.echo(f"{path}:{r['line']}:{r['col']}: invalid: "
                   f"{excerpt(r['text'])}")


def _write(pieces: Iterable[bytes], err: bool = False) -> None:
    """Print bytes as they are, to stdout or to stderr: ``click.echo`` drops
    ANSI escape sequences, which may be bytes of a file or of a planner's
    output, when the stream is not a terminal."""
    out = (sys.stderr if err else sys.stdout).buffer
    for piece in pieces:
        out.write(piece)
    out.flush()


# An input file that must exist; a directory is a usage error.
_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
# An output directory, created if missing; an existing file is a usage error.
_DIR = click.Path(file_okay=False, path_type=Path)


class _Cli(click.Group):
    """Runs each command with the cyclic garbage collector paused, and maps
    domain errors to exit code 1 with a one-line message.

    A command builds trees and token lists that hold no cycles; with the
    collector running, each of its young-generation collections would
    rescan what the previous layer built. A command that exits through
    ``sys.exit`` or a domain error leaves its frames, and so its trees, on
    the traceback; they are dropped before the collector is back on, since
    its first young collection would otherwise scan them all.
    """

    def invoke(self, ctx: click.Context):
        with gc_paused():
            try:
                return super().invoke(ctx)
            except SystemExit as exc:
                raise exc.with_traceback(None)
            except MyPddlError as exc:
                raise click.ClickException(str(exc)) \
                    from exc.with_traceback(None)


@click.group(cls=_Cli)
@click.option("--quiet", is_flag=True, help="Suppress diagnostic output.")
@click.option("--json", "as_json", is_flag=True,
              help="Machine-readable output where supported.")
@click.pass_context
def main(ctx: click.Context, quiet: bool, as_json: bool) -> None:
    """Knowledge-engineering toolkit for PDDL 3.1."""
    ctx.ensure_object(dict)
    ctx.obj["quiet"] = quiet
    ctx.obj["json"] = as_json


@main.command()
@click.argument("name")
@click.option("--dir", "parent_dir", type=_DIR,
              default=Path("."), help="Parent directory for the project.")
@click.option("--templates", "template_dir", type=click.Path(path_type=Path),
              default=None, help="Directory of template files overriding the "
              "built-in ones by relative path.")
@click.pass_context
def new(ctx: click.Context, name: str, parent_dir: Path,
        template_dir: Optional[Path]) -> None:
    """Create a new PDDL project tree named NAME."""
    from . import scaffold
    templates = scaffold.default_templates()
    if template_dir is not None:
        templates = scaffold.merge_templates(
            templates, scaffold.load_template_dir(template_dir))
    created = scaffold.create_project(name, parent_dir, templates)
    if not ctx.obj["quiet"]:
        for path in created:
            click.echo(str(path))


@main.command()
@click.argument("trigger", required=False)
@click.option("--list", "list_all", is_flag=True,
              help="List available snippets instead of expanding one.")
@click.option("--snippets-dir", type=click.Path(path_type=Path), default=None,
              help="Extra snippet directory; shadows built-ins by trigger.")
@click.pass_context
def snippet(ctx: click.Context, trigger: Optional[str], list_all: bool,
            snippets_dir: Optional[Path]) -> None:
    """Print the expansion of a snippet TRIGGER (e.g. domain, p2, t3)."""
    snippet_set = snippets.load_snippets(snippets_dir)
    for warning in snippet_set.warnings:
        if not ctx.obj["quiet"]:
            click.echo(f"warning: {warning}", err=True)
    if list_all:
        for row_trigger, description in snippets.list_snippets(snippet_set):
            click.echo(f"{row_trigger:24} {description}")
        return
    if trigger is None:
        raise click.UsageError("provide a trigger or use --list")
    _write([snippets.expand(trigger, snippet_set).encode("utf-8"), b"\n"])


@main.command()
@click.argument("file", type=_FILE)
@click.option("--format", "output_format",
              type=click.Choice(["json", "html"]), default="json",
              help="Output format.")
@click.option("--fail-on-invalid", is_flag=True,
              help="Exit 1 when any invalid region is present.")
def tokens(file: Path, output_format: str, fail_on_invalid: bool) -> None:
    """Print the scoped token stream of FILE."""
    columns = highlight.scope_columns(Document.read(file))
    _write([columns.render_html(title=file.name).encode("utf-8")]
           if output_format == "html" else chain(columns.iter_json(), [b"\n"]))
    if fail_on_invalid and columns.invalid_regions():
        sys.exit(1)


@main.command()
@click.argument("domain_file", metavar="DOMAIN", type=_FILE)
@click.option("--out", "output_root", type=_DIR,
              default=Path("."), help="Directory receiving domains/, dot/ "
              "and diagrams/.")
@click.option("--no-render", is_flag=True, help="Write DOT only; skip the image.")
@click.option("--renderer", default=None,
              help="External renderer command (default: dot, when available).")
@click.pass_context
def diagram(ctx: click.Context, domain_file: Path, output_root: Path,
            no_render: bool, renderer: Optional[str]) -> None:
    """Generate the type-hierarchy diagram for DOMAIN."""
    if no_render:
        renderer = None
    elif renderer is None and shutil.which("dot"):
        renderer = "dot"
    doc = Document.read(domain_file)
    artifacts, diagnostics = typegraph.render_diagram(
        doc, output_root, renderer=renderer)
    _print_report(_report(domain_file, doc, diagnostics), ctx.obj["quiet"])
    if not ctx.obj["quiet"]:
        click.echo(f"revision {artifacts.revision}:")
        click.echo(f"  {artifacts.copied_domain_path}")
        click.echo(f"  {artifacts.dot_path}")
        if artifacts.image_path is not None:
            click.echo(f"  {artifacts.image_path}")


@main.command()
@click.argument("file", type=_FILE)
@click.argument("keyword")
def extract(file: Path, keyword: str) -> None:
    """Print every block of FILE headed by KEYWORD."""
    _write(serialize_node(block).encode("utf-8") + b"\n"
           for block in construct.read_construct(keyword, file))


@main.command()
@click.argument("file", type=_FILE)
@click.argument("keyword")
@click.argument("construct_text", metavar="CONSTRUCT")
@click.option("--stdout", "to_stdout", is_flag=True,
              help="Print the updated file instead of rewriting it.")
def insert(file: Path, keyword: str, construct_text: str,
           to_stdout: bool) -> None:
    """Append CONSTRUCT to the first KEYWORD block of FILE."""
    nodes = construct.parse_constructs(construct_text)
    if to_stdout:
        _write([construct.insert_construct(Document.read(file), keyword,
                                           nodes).encode("utf-8")])
    else:
        construct.add_construct(file, keyword, nodes)


@main.command(name="distance")
@click.argument("problem_file", metavar="PROBLEM", type=_FILE)
@click.option("--predicate", default=distance.DEFAULT_PREDICATE,
              show_default=True, help="Location predicate to harvest.")
@click.option("--in-place", is_flag=True, help="Rewrite PROBLEM itself.")
@click.option("--out", "output_file",
              type=click.Path(dir_okay=False, path_type=Path), default=None,
              help="Output file (default: <name>_dist.pddl).")
@click.pass_context
def distance_cmd(ctx: click.Context, problem_file: Path, predicate: str,
                 in_place: bool, output_file: Optional[Path]) -> None:
    """Append pairwise Euclidean distance facts to PROBLEM's init block."""
    if in_place and output_file is not None:
        raise click.UsageError("--in-place and --out are mutually exclusive")
    if in_place:
        output_file = problem_file
    doc = Document.read(problem_file)
    try:
        out_path, diagnostics = distance.augment_file(
            doc, output_file, predicate_name=predicate)
    except distance.DistanceError as exc:
        if not exc.findings:
            raise
        _print_report(_report(problem_file, doc, exc.findings),
                      ctx.obj["quiet"])
        count = len(exc.findings)
        raise MyPddlError(f"{count} error{'s' * (count > 1)} in the "
                          f"{predicate} facts; nothing written") from None
    _print_report(_report(problem_file, doc, diagnostics), ctx.obj["quiet"])
    if not ctx.obj["quiet"]:
        click.echo(str(out_path))


@main.command()
@click.option("--domain", "domain_file", type=click.Path(path_type=Path),
              default=Path("domain.pddl"), show_default=True)
@click.option("--problem", "problem_file", type=click.Path(path_type=Path),
              default=Path("problems/p01.pddl"), show_default=True)
@click.option("--config", "config_file", type=click.Path(path_type=Path),
              default=Path("mypddl.toml"), show_default=True)
@click.pass_context
def plan(ctx: click.Context, domain_file: Path, problem_file: Path,
         config_file: Path) -> None:
    """Run the configured planner on a domain/problem pair."""
    from . import planner
    config = planner.load_config(config_file)
    result = planner.run_planner(config, domain_file, problem_file)
    if result.stdout and not ctx.obj["quiet"]:
        _write([result.stdout.encode("utf-8")])
    if result.stderr:
        _write([result.stderr.encode("utf-8")], err=True)
    if result.timed_out:
        click.echo(f"planner timed out after {result.elapsed:.1f}s", err=True)
        sys.exit(1)
    if not ctx.obj["quiet"]:
        if result.solution_path is not None:
            click.echo(f"solution: {result.solution_path}")
        else:
            click.echo("no new solution file detected")
    if result.exit_code != 0:
        sys.exit(1)


@main.command()
@click.argument("files", nargs=-1, required=True, type=_FILE)
@click.pass_context
def check(ctx: click.Context, files: tuple[Path, ...]) -> None:
    """Parse and scope FILES, reporting errors and invalid regions."""
    any_bad = False
    reports = []
    error = Severity.ERROR
    for path in files:
        doc = Document.read(path)
        report = _report(path, doc, doc.diagnostics,
                         highlight.scope_columns(doc).invalid_regions())
        errors = sum(d.severity is error for d in doc.diagnostics)
        regions = len(report["invalid_regions"])
        any_bad = any_bad or bool(errors or regions)
        if ctx.obj["json"]:
            reports.append(report)
            continue
        _print_report(report, ctx.obj["quiet"])
        click.echo(f"{path}: {errors} errors, {regions} invalid regions")
    if ctx.obj["json"]:
        click.echo(json.dumps(reports, indent=2))
    if any_bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
