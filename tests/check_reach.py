"""Check that every function of the package serves a command, or is kept
for a stated reason.

Run it from the repository root with the interpreter under test:

    python tests/check_reach.py

It needs click and nothing else beyond the standard library. It turns
``sys.settrace`` on before the package is imported, so what runs at import
counts as reached, and then runs every subcommand in process through
click's ``CliRunner``: on each corpus file, each grammar-tour fixture, the
seed-1 domain and problem of each benchmark workload and the inputs of
``CASES``, which reach grammar and error paths by input. It lists each
top-level function and method of ``src/mypddl`` that no command entered;
nested functions are left out, and functions are keyed by file and first
line, as ``co_qualname`` is new in Python 3.11. ``KEPT`` names each
function that no command calls, with the reason it is kept. The check
prints one line per function that no command reached and ``KEPT`` does
not name, and one per ``KEPT`` name that a command reached or that names
no function, and exits 1 if there is any, else 0.
"""

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mypddl"

# (file, first line) of each code object entered, from the package's import on.
entered: set = set()


def _trace(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno))


WORKLOADS = ("large-problem", "distance-grid", "broken-domain")

LIBRARY = "library API"
PICKLING = "pickling"
DEFERRED = "builds a deferred model field on its first read"
ORACLE = "the tree oracle of the structural index, in tests/references.py"
LAYER = "named by LAYERS in benchmarks/spans.py"

# Each function that no command calls, by module and qualified name, and
# why it stays; the README's list of library-only names is this one.
KEPT = {
    "mypddl.__dir__": LIBRARY,
    "sexpr.Span.__len__": LIBRARY,
    "sexpr.Span.overlaps": LIBRARY,
    "sexpr.Record._values": LIBRARY,
    "sexpr.Record.__eq__": LIBRARY,
    "sexpr.Record.__repr__": LIBRARY,
    "sexpr.SExprNode.__new__": LIBRARY,
    "sexpr.SExprNode.walk": LIBRARY,
    "sexpr.SExprNode.__repr__": LIBRARY,
    "sexpr.Document.forest": LIBRARY,
    "model.TypedList.names": LIBRARY,
    "model.parse_problem": LIBRARY,
    "highlight.tokenize": LIBRARY,
    "highlight.TokenColumns.of": LIBRARY,
    "highlight.invalid_regions": LIBRARY,
    "highlight.iter_tokens_json": LIBRARY,
    "highlight.emit_tokens_json": LIBRARY,
    "highlight.render_html": LIBRARY,
    "distance.extract_locations": LIBRARY,
    "distance.distance_facts": LIBRARY,
    "distance.augment_with_distances": LIBRARY,
    "typegraph.TypeGraph.children": LIBRARY,
    "typegraph.hierarchy_depth": LIBRARY,
    "sexpr.SExprNode.__getnewargs__": PICKLING,
    "sexpr._made": DEFERRED,
    "sexpr.Tape.node": DEFERRED,
    "model._parameters": DEFERRED,
    "model._facts": DEFERRED,
    "model._Recorder.warn": DEFERRED,
    "sexpr.find_blocks": ORACLE,
    "sexpr.offset_to_line_col": LAYER,
}

# Inputs that reach grammar and error paths the files above do not: a
# continuous effect's rate, a total-cost in :init, a distance tie, a
# coordinate too large for a distance, and one that is no number.
CASES = {
    "rate.pddl": b"(define (domain rate) (:functions (f))\n"
    b"  (:durative-action grow :parameters () :duration (= ?duration 2)\n"
    b"    :condition (at start (p))\n"
    b"    :effect (and (increase (f) (* 2 #t)) (at end (q)))))\n",
    "cost.pddl": b"(define (problem cost) (:domain d)\n"
    b"  (:init (= total-cost 0) (at a))\n  (:goal (at a)))\n",
    "tie.pddl": b"(define (problem tie) (:domain d)\n"
    b"  (:init (location a 0 0) (location b 0.03125 0) (location c 0 0))\n"
    b"  (:goal (at a)))\n",
    "huge.pddl": b"(define (problem huge) (:domain d)\n"
    b"  (:init (location a 1e200 0) (location b -1e200 0))\n"
    b"  (:goal (at a)))\n",
    "bad-coordinate.pddl": b"(define (problem bad) (:domain d)\n"
    b"  (:init (location a 1 x))\n  (:goal (at a)))\n",
}

KEYWORDS = (":init", ":goal", ":action", ":types", ":INIT", ":nonexistent")


def functions() -> dict:
    """Each top-level function and method of the package, by the file and
    first line of its code object (a decorator's, if it has one): its
    module and qualified name."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "mypddl" if path.stem == "__init__" else path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node, "")]
            elif isinstance(node, ast.ClassDef):
                defs = [(item, f"{node.name}.") for item in node.body
                        if isinstance(item, ast.FunctionDef)]
            else:
                defs = []
            for fn, prefix in defs:
                first = min([fn.lineno, *(d.lineno for d in fn.decorator_list)])
                found[str(path), first] = f"{module}.{prefix}{fn.name}"
    return found


def run_commands(work: Path) -> None:
    """Every subcommand, on every input, in process; the package is
    imported here, so that what runs at import is traced too."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    import gen  # benchmarks/gen.py: the seeded input generator
    from click.testing import CliRunner
    from mypddl.cli import main as cli

    runner = CliRunner()

    def run(*args: str) -> None:
        runner.invoke(cli, [str(arg) for arg in args], catch_exceptions=False)

    files = [*sorted((ROOT / "tests" / "corpus").glob("*.pddl")),
             *sorted((ROOT / "tests" / "fixtures").glob("tour_*.pddl"))]
    for workload in WORKLOADS:
        generated = gen.generate(workload, 1)
        for kind in ("domain", "problem"):
            files.append(work / f"{workload}-{kind}.pddl")
            files[-1].write_bytes(getattr(generated, kind).text)
    for name, data in CASES.items():
        files.append(work / name)
        files[-1].write_bytes(data)

    run("check", *files)
    run("--json", "check", *files)
    renderer = work / "renderer.py"
    renderer.write_text(f"#!{sys.executable}\nimport shutil, sys\n"
                        "shutil.copyfile(sys.argv[2], sys.argv[4])\n")
    renderer.chmod(0o755)
    for k, path in enumerate(files):
        run("tokens", path)
        run("tokens", "--format", "html", path)
        run("tokens", "--fail-on-invalid", path)
        for keyword in KEYWORDS:
            run("extract", path, keyword)
        copy = work / f"copy-{k}.pddl"
        copy.write_bytes(path.read_bytes())
        run("insert", "--stdout", path, ":init", "(at b)")
        run("insert", copy, ":init", "(at b) (at c)")
        run("distance", path, "--out", work / f"dist-{k}.pddl")
        run("distance", copy, "--in-place")
        run("diagram", path, "--no-render", "--out", work / "diagrams")
    run("diagram", files[0], "--renderer", renderer, "--out", work / "drawn")

    run("snippet", "domain")
    run("snippet", "p2")
    run("snippet", "--list")
    run("snippet", "domian")
    templates = work / "templates"
    templates.mkdir()
    (templates / "domain.pddl").write_text("(define (domain {name}))\n")
    run("new", "plain", "--dir", work)
    run("new", "custom", "--dir", work, "--templates", templates)
    config = work / "mypddl.toml"
    stub = ROOT / "tests" / "fixtures" / "stub_planner.py"
    config.write_text(f'command = "{sys.executable} {stub} {{domain}} '
                      f'{{problem}} {{solution_dir}}"\n')
    tour = ROOT / "tests" / "fixtures"
    run("plan", "--domain", tour / "tour_domain.pddl",
        "--problem", tour / "tour_problem.pddl", "--config", config)


def main() -> int:
    sys.settrace(_trace)
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)  # a command's default output goes to the work tree
        try:
            run_commands(Path(work))
        finally:
            os.chdir(cwd)
    sys.settrace(None)
    found = functions()
    unreached = {name: key for key, name in found.items()
                 if key not in entered}
    failures = [f"{name} ({Path(file).relative_to(ROOT)}:{line}) is called "
                "by no command and has no reason in KEPT"
                for name, (file, line) in unreached.items()
                if name not in KEPT]
    failures += [f"KEPT names {name}, which "
                 + ("no function is" if name not in found.values()
                    else "a command reaches")
                 for name in KEPT if name not in unreached]
    for line in failures:
        print(line)
    if not failures:
        print(f"{len(found)} functions: {len(found) - len(KEPT)} reached by "
              f"a command, {len(KEPT)} kept for a reason")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
