"""Tests of the benchmark itself: seeded inputs and checkers that reject
planted wrong outputs. Run with ``python -m pytest benchmarks``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SMALL = {
    "domain": dict(n_types=15, n_actions=30, n_misspelled=3),
    "problem": dict(n_objects=20, n_facts=80, numeric_share=0.3,
                    n_locations=6, n_goals=3),
}


@pytest.fixture
def workspace(tmp_path):
    def make(workload: str, seed: int = 7):
        inputs = gen.generate(workload, seed, SMALL)
        files = gen.write(inputs, tmp_path / "inputs")
        ops = run.build_ops(inputs, files, tmp_path)
        return inputs, ops, run.Round(workload, ops)
    return make


def _outcome(rounds: run.Round, op: run.Op) -> checks.Outcome:
    op.prepare()
    result = rounds.runner.invoke(rounds.main, op.argv)
    return checks.Outcome(result.exit_code, result.stdout_bytes,
                          result.stderr_bytes, result.exception)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_bytes(workload):
    first, again = gen.generate(workload, 3), gen.generate(workload, 3)
    other = gen.generate(workload, 4)
    assert first.domain.text == again.domain.text
    assert first.problem.text == again.problem.text
    assert first.problem.text != other.problem.text
    assert first.crlf.text == other.crlf.text  # fixed, seed-independent
    assert first.latin1 == other.latin1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_round_passes_its_checks(workspace, workload):
    _, _, rounds = workspace(workload)
    rounds.run()
    assert rounds.errors == []
    assert rounds.failed == len(run.KNOWN_FAULTS[workload])
    assert set(rounds.known) == set(run.KNOWN_FAULTS[workload])


def test_distance_check_rejects_a_changed_digit(workspace):
    inputs, ops, rounds = workspace("distance-grid")
    op = ops["distance"]
    out = _outcome(rounds, op)
    written = (Path(op.argv[-1])).read_bytes()
    checks.check_distance(out, inputs.problem, written)
    at = written.index(b")", written.index(b"(distance p0 p1 ")) - 1
    digit = written[at:at + 1]
    planted = written[:at] + (b"1" if digit != b"1" else b"2") \
        + written[at + 1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_distance(out, inputs.problem, planted)


def test_insert_check_rejects_a_dropped_crlf():
    crlf = gen.crlf_problem()
    at = crlf.init_close
    good = crlf.text[:at] + b"\r\n    " + crlf.construct.encode() \
        + crlf.text[at:]
    out = checks.Outcome(0, b"", b"", None)
    checks.check_insert(out, crlf, good)
    planted = good.replace(b"\r\n", b"\n", 1)
    with pytest.raises(checks.CheckFailed, match="CR bytes"):
        checks.check_insert(out, crlf, planted)


def test_region_check_rejects_a_region_moved_off_its_error(workspace):
    inputs, ops, rounds = workspace("broken-domain")
    out = _outcome(rounds, ops["check_json"])
    files = [(Path(ops["check_json"].argv[2]), inputs.domain.text,
              inputs.domain),
             (Path(ops["check_json"].argv[3]), inputs.problem.text, None)]
    checks.check_json(out, files)
    reports = json.loads(out.stdout)
    region = reports[0]["invalid_regions"][0]
    clean = inputs.domain.clean_actions[0]
    start = inputs.domain.text.index(b":precondition", clean[0])
    data = inputs.domain.text
    region.update(start=start, end=start + len(b":precondition"),
                  text=":precondition")
    region["line"], region["col"] = checks.line_col(data, start)
    planted = checks.Outcome(out.exit_code, json.dumps(reports).encode(),
                             out.stderr, out.exception)
    with pytest.raises(checks.CheckFailed, match="seeded error|no invalid"):
        checks.check_json(planted, files)


def test_latin1_check_wants_one_line_and_exit_1():
    checks.check_latin1(checks.Outcome(1, b"", b"Error: not UTF-8\n",
                                       SystemExit(1)))
    with pytest.raises(checks.CheckFailed):
        checks.check_latin1(checks.Outcome(1, b"", b"",
                                           UnicodeDecodeError(
                                               "utf-8", b"\xe9", 0, 1, "bad")))


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in Path(__file__).resolve().parent.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "distance-grid", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
