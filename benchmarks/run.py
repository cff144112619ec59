"""Benchmark of mypddl's command line, end to end and per layer.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload large-problem --seed 1 \
        --seconds 32 --trace 0

The run generates the workload's inputs from the seed, then repeats whole
rounds of CLI calls on them until ``--seconds`` have passed, checking every
output with `checks`. Each call runs the real click command through click's
test runner, in a child forked from the warmed-up benchmark process. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones (median time of each command at reference pace,
cold start-up time, peak memory), and the raw wall-time medians go to
standard error; with ``--trace 1`` rounds alternate between untraced and
traced, and the metrics are per-layer self times and counts from `spans`,
plus the tracing overhead. Per-command call counts of a traced round go to
standard error.

The program is imported from ``src/`` beside this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("large-problem", "distance-grid", "broken-domain")

# Calls of each command per round. Commands that are light on a workload
# repeat so that every median rests on enough samples; a round always has
# the same make-up, so the share of failed operations never varies.
REPS = {
    "large-problem": dict(check=1, check_json=1, tokens_json=1, tokens_html=1,
                          extract=1, insert=1, distance=1, diagram=8),
    "distance-grid": dict(check=2, check_json=2, tokens_json=2, tokens_html=3,
                          extract=5, insert=4, distance=3, diagram=8),
    "broken-domain": dict(check=1, check_json=1, tokens_json=2, tokens_html=3,
                          extract=5, insert=5, distance=2, diagram=1),
}
# Operations that fail every time because of a known fault in the program.
# They run once per round, are counted in ``failed`` and are not timed.
KNOWN_FAULTS = {
    "large-problem": ["insert_crlf"],
    "distance-grid": [],
    "broken-domain": ["check_latin1"],
}
# The command whose cold subprocess peak memory is reported.
HEAVIEST = {
    "large-problem": "tokens_json",
    "distance-grid": "distance",
    "broken-domain": "check_json",
}
EARLIER_REVISIONS = 3
SETUP_REPEATS = 9
SNIPPET_P2 = b"(pred-name ?x - object ?y - object)\n"

END_TO_END = ["setup_s", "check_s", "check_json_s", "tokens_json_s",
              "tokens_html_s", "extract_s", "insert_s", "distance_s",
              "diagram_s", "peak_rss_mb"]
PER_LAYER = [
    "sexpr.parse_sexpr.self_s", "sexpr.parse_sexpr.calls", "sexpr.nodes",
    "sexpr.serialize.self_s", "sexpr.find_blocks.self_s",
    "sexpr.offset_to_line_col.self_s", "sexpr.offset_to_line_col.calls",
    "model.parse_domain.self_s", "model.diagnostics",
    "model.parse_problem.self_s",
    "highlight.tokenize.self_s", "highlight.tokens",
    "highlight.invalid_regions.self_s", "highlight.regions",
    "highlight.emit_tokens_json.self_s", "highlight.render_html.self_s",
    "construct.read_construct.self_s", "construct.add_construct.self_s",
    "construct.insert_construct.self_s", "construct.append_to_block.self_s",
    "construct.write_atomically.self_s", "construct.bytes_written",
    "distance.extract_locations.self_s", "distance.distance_facts.self_s",
    "distance.augment_with_distances.self_s", "distance.augment_file.self_s",
    "distance.facts",
    "typegraph.build_type_graph.self_s", "typegraph.emit_dot.self_s",
    "typegraph.render_diagram.self_s", "typegraph.nodes", "typegraph.edges",
    "cli.self_s", "cli.calls", "cli.import_s",
    "trace.overhead_s", "trace.overhead_pct",
]


def unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_pct"):
        return "%"
    return "s" if metric.endswith("_s") else "count"


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable
    prepare: Callable[[], None] = lambda: None
    timed: bool = True


def build_ops(inputs, files: dict[str, Path], work: Path) -> dict[str, Op]:
    """Every command of a round, with its argument vector, the preparation
    that makes each call start from the same state, and its output check."""
    dom, prob = files["domain"], files["problem"]
    both = [(dom, inputs.domain.text, inputs.domain),
            (prob, inputs.problem.text, None)]
    inserted = work / "insert.pddl"
    crlf_inserted = work / "insert_crlf.pddl"
    distance_out = work / "distance.pddl"
    diagram_root = work / "diagram"

    def fresh_copy(target: Path, data: bytes) -> Callable[[], None]:
        return lambda: target.write_bytes(data)

    def remove_distance_out() -> None:
        distance_out.unlink(missing_ok=True)

    def reset_diagram_root() -> None:
        shutil.rmtree(diagram_root, ignore_errors=True)
        for sub, suffix in (("domains", ".pddl"), ("dot", ".dot")):
            (diagram_root / sub).mkdir(parents=True)
            for rev in range(1, EARLIER_REVISIONS + 1):
                (diagram_root / sub / f"{dom.stem}_{rev}{suffix}") \
                    .write_bytes(inputs.domain.text)

    ops = [
        Op("check", ["check", str(dom), str(prob)],
           lambda out: checks.check_text(out, both)),
        Op("check_json", ["--json", "check", str(dom), str(prob)],
           lambda out: checks.check_json(out, both)),
        Op("tokens_json", ["tokens", str(prob)],
           lambda out: checks.check_tokens_json(out, inputs.problem)),
        Op("tokens_html", ["tokens", str(prob), "--format", "html"],
           lambda out: checks.check_tokens_html(out, inputs.problem.text)),
        Op("extract", ["extract", str(prob), ":goal"],
           lambda out: checks.check_extract(out, inputs.problem)),
        Op("insert", ["insert", str(inserted), ":init",
                      inputs.problem.construct],
           lambda out: checks.check_insert(out, inputs.problem,
                                           inserted.read_bytes()),
           fresh_copy(inserted, inputs.problem.text)),
        Op("distance", ["distance", str(prob), "--out", str(distance_out)],
           lambda out: checks.check_distance(out, inputs.problem,
                                             distance_out.read_bytes()),
           remove_distance_out),
        Op("diagram", ["diagram", str(dom), "--out", str(diagram_root),
                       "--no-render"],
           lambda out: checks.check_diagram(out, inputs.domain, diagram_root,
                                            dom.stem, EARLIER_REVISIONS),
           reset_diagram_root),
        Op("insert_crlf", ["insert", str(crlf_inserted), ":init",
                           inputs.crlf.construct],
           lambda out: checks.check_insert(out, inputs.crlf,
                                           crlf_inserted.read_bytes()),
           fresh_copy(crlf_inserted, inputs.crlf.text), timed=False),
        Op("check_latin1", ["check", str(files["latin1"])],
           checks.check_latin1, timed=False),
    ]
    return {op.name: op for op in ops}


class Round:
    """Runs the operations of one workload and tallies their outcomes."""

    def __init__(self, workload: str, ops: dict[str, Op]) -> None:
        from click.testing import CliRunner

        from mypddl.cli import main

        self.main = main
        self.runner = CliRunner()
        self.plan = [(ops[name], reps) for name, reps in REPS[workload].items()]
        self.plan += [(ops[name], 1) for name in KNOWN_FAULTS[workload]]
        self.samples: dict[str, list[float]] = {n: [] for n in REPS[workload]}
        self.paced: dict[str, list[float]] = {n: [] for n in REPS[workload]}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.known: dict[str, str] = {}

    def invoke(self, op: Op, tracer=None) -> float:
        """Make one call, in a child forked from this process so that every
        call starts from the same heap, as a fresh command would; tally its
        check and return its wall time. The process has no threads, so the
        fork is safe; the child always leaves through ``os._exit``."""
        op.prepare()
        sys.stdout.flush()
        sys.stderr.flush()
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                with os.fdopen(write_end, "w") as pipe:
                    json.dump(self._call(op, tracer), pipe)
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            raw = pipe.read()
        os.waitpid(pid, 0)
        report = json.loads(raw) if raw else {
            "elapsed": 0.0, "error": "the call's process ended without a "
            "report", "spans": [], "counts": {}}
        if tracer is not None:
            tracer.absorb(report["spans"], report["counts"])
        self.attempted += 1
        if report["error"] is not None:
            self.failed += 1
            if op.timed:
                self.errors.append(f"{op.name}: {report['error']}")
            else:
                self.known.setdefault(op.name, report["error"])
        return report["elapsed"]

    def _call(self, op: Op, tracer) -> dict:
        """The child's side: the call, its check, and its spans."""
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        if tracer is None:
            result = self.runner.invoke(self.main, op.argv)
        else:
            with tracer.span("cli"):
                result = self.runner.invoke(self.main, op.argv)
        elapsed = time.perf_counter() - start
        outcome = checks.Outcome(result.exit_code, result.stdout_bytes,
                                 result.stderr_bytes, result.exception)
        error = None
        try:
            op.check(outcome)
        except Exception as exc:  # malformed output can break a check anywhere
            error = str(exc) if isinstance(exc, checks.CheckFailed) \
                else f"{type(exc).__name__}: {exc}"
        return {"elapsed": elapsed, "error": error,
                "spans": tracer.spans if tracer is not None else [],
                "counts": dict(tracer.counts) if tracer is not None else {}}

    def run(self, tracer=None, per_op: Callable | None = None) -> float:
        """One round; returns the summed time of its timed calls at
        reference pace. Each call is followed by the pace work, so every
        call has a pace reading just before and just after it."""
        total = 0.0
        for op, reps in self.plan:
            gc.collect()
            gc.freeze()  # children then copy fewer pages on write
            first = len(tracer.spans) if tracer is not None else 0
            before = pace()
            for _ in range(reps):
                elapsed = self.invoke(op, tracer)
                after = pace()
                if op.timed:
                    self.samples[op.name].append(elapsed)
                    self.paced[op.name].append(at_reference_pace(
                        elapsed, before, after))
                    total += self.paced[op.name][-1]
                before = after
            if per_op is not None:
                per_op(op.name, first, reps)
        return total


# The pace work: a fixed piece of pure-Python work that belongs to the
# benchmark, reading nested lists from text and building small records the
# way the program's reader does. Its time follows the machine's speed and
# never the program's code. On a shared machine the speed of a core changes
# by up to a factor of two within seconds; dividing each call by the pace
# measured around it reports the call at one reference speed.
_PACE_TEXT = "(define (problem pace) (:init " + " ".join(
    f"(at o{i} p{i % 7}) (= (f o{i}) {i}.5)" for i in range(3000)) + "))"
# The pace work's duration at the reference speed.
PACE_REFERENCE_S = 0.010


def pace() -> float:
    start = time.perf_counter()
    stack: list[list] = [[]]
    for tok in _PACE_TEXT.replace("(", " ( ").replace(")", " ) ").split():
        if tok == "(":
            stack.append([])
        elif tok == ")":
            node = tuple(stack.pop())
            stack[-1].append(node)
        else:
            stack[-1].append({"text": tok, "size": len(tok)})
    return time.perf_counter() - start


def at_reference_pace(elapsed: float, before: float, after: float) -> float:
    return elapsed * PACE_REFERENCE_S * 2 / (before + after)


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cold_run(argv: list[str]) -> tuple[float, int, bytes]:
    """Wall time, exit status and stdout of a fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          env=subprocess_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def setup_seconds(errors: list[str]) -> float:
    """Median cold start of ``mypddl snippet p2``, after one warm-up run
    that leaves the bytecode cache filled."""
    times = []
    before = pace()
    for i in range(SETUP_REPEATS + 1):
        elapsed, code, out = cold_run(["-m", "mypddl.cli", "snippet", "p2"])
        after = pace()
        if code != 0 or out != SNIPPET_P2:
            errors.append(f"snippet p2: exit {code}, printed {out!r}")
        if i:
            times.append(at_reference_pace(elapsed, before, after))
        before = after
    return statistics.median(times)


def import_seconds() -> float:
    """Median time of a cold ``import mypddl.cli``."""
    code = ("import time; t = time.perf_counter(); import mypddl.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(cold_run(["-c", code])[2]) for _ in range(SETUP_REPEATS))


def peak_rss_mb(op: Op, errors: list[str]) -> float:
    """Peak resident memory of a cold subprocess running ``op``."""
    op.prepare()
    proc = subprocess.Popen([sys.executable, "-m", "mypddl.cli", *op.argv],
                            cwd=ROOT, env=subprocess_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 1):
        errors.append(f"{op.name} subprocess: exit {proc.returncode}")
    return usage.ru_maxrss / 1024


def untraced(workload: str, rounds: Round, ops: dict[str, Op],
             seconds: float) -> dict[str, float]:
    metrics = {"setup_s": setup_seconds(rounds.errors),
               "peak_rss_mb": peak_rss_mb(ops[HEAVIEST[workload]],
                                          rounds.errors)}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rounds.run()
    for name, samples in rounds.paced.items():
        metrics[f"{name}_s"] = statistics.median(samples)
    print(json.dumps({"raw_wall_median_s": {
        name: statistics.median(samples)
        for name, samples in rounds.samples.items()},
        "samples": {name: len(samples)
                    for name, samples in rounds.samples.items()}}),
        file=sys.stderr)
    return metrics


def traced(workload: str, rounds: Round, problem_text: bytes,
           seconds: float) -> dict[str, float]:
    """Alternate untraced and traced rounds; per-layer medians over the
    traced ones, and the difference in round time as tracing overhead."""
    from mypddl import model

    tracer = Tracer()
    plain_totals, traced_totals, per_round = [], [], []
    calls_by_op: dict[str, dict[str, float]] = {}

    def record_calls(name: str, first: int, reps: int) -> None:
        counts: dict[str, float] = {}
        for span in tracer.spans[first:]:
            counts[span[0]] = counts.get(span[0], 0) + 1 / reps
        calls_by_op[name] = counts

    metrics = {"cli.import_s": import_seconds()}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_totals:
        if len(plain_totals) == len(traced_totals):
            plain_totals.append(rounds.run())
            continue
        tracer.reset()
        tracer.install()
        try:
            traced_totals.append(rounds.run(
                tracer, None if calls_by_op else record_calls))
            counts = dict(tracer.counts)
            with tracer.span("library"):
                model.parse_problem(problem_text.decode("utf-8"))
            tracer.counts.clear()
            tracer.counts.update(counts)
        finally:
            tracer.restore()
        layer = tracer.summary("cli")
        layer["model.parse_problem.self_s"] = \
            tracer.summary("library").get("model.parse_problem.self_s", 0.0)
        layer.update(tracer.counts)
        per_round.append(layer)

    for name, counts in calls_by_op.items():
        print(json.dumps({"op": name, "calls_per_call": {
            k: round(v, 3) for k, v in sorted(counts.items())
            if k != "trace.count"}}), file=sys.stderr)
    for name in PER_LAYER:
        if name.startswith("trace.") or name == "cli.import_s":
            continue
        metrics[name] = statistics.median(r.get(name, 0) for r in per_round)
    plain, with_spans = (statistics.median(plain_totals),
                         statistics.median(traced_totals))
    metrics["trace.overhead_s"] = with_spans - plain
    metrics["trace.overhead_pct"] = 100 * (with_spans - plain) / plain
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    inputs = gen.generate(workload, seed)
    files = gen.write(inputs, work / "inputs")
    ops = build_ops(inputs, files, work)
    rounds = Round(workload, ops)
    if trace:
        metrics = traced(workload, rounds, inputs.problem.text, seconds)
        names = PER_LAYER
    else:
        metrics = untraced(workload, rounds, ops, seconds)
        names = END_TO_END
    for name, message in rounds.known.items():
        print(f"known fault, counted as failed: {name}: {message}",
              file=sys.stderr)
    for error in dict.fromkeys(rounds.errors):
        print(f"check failed: {error}", file=sys.stderr)
    return {
        "correct": not rounds.errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit(name)}
                    for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mypddl" / "cli.py").is_file():
        print(f"no mypddl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One core for the run and its children, so that the pace work and the
    # calls it brackets see the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
