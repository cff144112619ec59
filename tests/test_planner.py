"""Planner harness tests: config parsing, substitution, subprocess runs."""

import os
import sys
import time

import pytest

from mypddl.planner import (
    PlannerConfig,
    PlannerError,
    parse_config,
    run_planner,
    substitute_template,
)

from conftest import FIXTURES

PY = sys.executable


@pytest.fixture
def pair(tmp_path):
    domain = tmp_path / "domain.pddl"
    problem = tmp_path / "p01.pddl"
    domain.write_text("(define (domain d))", encoding="utf-8")
    problem.write_text("(define (problem p) (:domain d) (:goal (g)))",
                       encoding="utf-8")
    return domain, problem


def test_config_requires_domain_and_problem_placeholders():
    with pytest.raises(PlannerError, match="{problem}"):
        PlannerConfig(command_template="solve {domain}")
    with pytest.raises(PlannerError, match="{domain}"):
        PlannerConfig(command_template="solve {problem}")


def test_parse_config_roundtrip():
    config = parse_config(
        '# my planner\n'
        'command = "fast-forward {domain} {problem} -o {solution_dir}"\n'
        "timeout_seconds = 42\n"
        'solution_dir = "plans"\n')
    assert config.command_template.startswith("fast-forward")
    assert config.timeout_seconds == 42
    assert config.solution_dir == "plans"


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(PlannerError, match="not understood"):
        parse_config("nonsense line\n")
    with pytest.raises(PlannerError, match="no 'command'"):
        parse_config("timeout_seconds = 3\n")


def test_substitution_keeps_spaces_intact(tmp_path):
    spaced = tmp_path / "my domain.pddl"
    argv = substitute_template(
        "planner {domain} --out {solution_dir}",
        {"domain": str(spaced), "solution_dir": "solutions"})
    assert argv == ["planner", str(spaced), "--out", "solutions"]


def test_substitution_inside_composite_tokens():
    argv = substitute_template("run --files={domain},{problem}",
                               {"domain": "d.pddl", "problem": "p.pddl"})
    assert argv == ["run", "--files=d.pddl,p.pddl"]


def test_echo_planner_sees_both_paths(pair):
    domain, problem = pair
    config = PlannerConfig(command_template="echo {domain} {problem}")
    result = run_planner(config, domain, problem,
                         solution_dir=domain.parent / "solutions")
    assert result.exit_code == 0
    assert str(domain) in result.stdout and str(problem) in result.stdout
    assert result.elapsed >= 0
    assert result.solution_path is None


def test_positional_stub_planner_writes_solution(pair, tmp_path):
    domain, problem = pair
    stub = FIXTURES / "stub_planner.py"
    config = PlannerConfig(
        command_template=f"{PY} {stub} {{domain}} {{problem}} {{solution_dir}}")
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.exit_code == 0
    assert result.solution_path is not None
    assert result.solution_path.name == "plan.txt"
    assert "(noop)" in result.solution_path.read_text(encoding="utf-8")


def test_flag_stub_planner_writes_solution(pair, tmp_path):
    domain, problem = pair
    stub = FIXTURES / "stub_planner_flags.py"
    config = PlannerConfig(
        command_template=(f"{PY} {stub} --domain {{domain}} "
                          f"--problem {{problem}} "
                          f"--plan-out {{solution_dir}}/out.plan"))
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.exit_code == 0
    assert result.solution_path is not None
    assert result.solution_path.name == "out.plan"


def test_nonexistent_planner_is_a_clean_error(pair):
    domain, problem = pair
    config = PlannerConfig(
        command_template="definitely-not-a-planner {domain} {problem}")
    with pytest.raises(PlannerError, match="not found"):
        run_planner(config, domain, problem,
                    solution_dir=domain.parent / "solutions")


def test_timeout_sets_flag(pair, tmp_path):
    domain, problem = pair
    config = PlannerConfig(
        command_template=(f"{PY} -c 'import time,sys; time.sleep(5)' "
                          f"{{domain}} {{problem}}"),
        timeout_seconds=1)
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.timed_out
    assert result.exit_code is None
    assert result.elapsed < 5


def test_output_that_is_not_utf8_is_replaced(pair, tmp_path):
    domain, problem = pair
    config = PlannerConfig(command_template=(
        f"{PY} -c 'import sys; sys.stdout.buffer.write(b\"ok \\xff\\n\"); "
        f"sys.stderr.buffer.write(b\"\\xfe\")' {{domain}} {{problem}}"))
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.exit_code == 0
    assert result.stdout == "ok \ufffd\n"
    assert result.stderr == "\ufffd"


def test_timeout_output_that_is_not_utf8_is_replaced(pair, tmp_path):
    domain, problem = pair
    config = PlannerConfig(command_template=(
        f"{PY} -c 'import sys,time; sys.stdout.buffer.write(b\"\\xff\"); "
        f"sys.stdout.flush(); time.sleep(30)' {{domain}} {{problem}}"),
        timeout_seconds=1)
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.timed_out
    assert result.stdout == "\ufffd"


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_timeout_kills_the_planners_grandchildren(pair, tmp_path):
    domain, problem = pair
    pid_file = tmp_path / "grandchild.pid"
    stub = tmp_path / "spawning_planner.py"
    stub.write_text(
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c',\n"
        "                          'import time; time.sleep(60)'])\n"
        f"open({str(pid_file)!r}, 'w').write(str(child.pid))\n"
        "time.sleep(60)\n", encoding="utf-8")
    config = PlannerConfig(
        command_template=f"{PY} {stub} {{domain}} {{problem}}",
        timeout_seconds=2)
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.timed_out
    grandchild = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(grandchild) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(grandchild)


def test_missing_inputs_rejected(tmp_path):
    config = PlannerConfig(command_template="echo {domain} {problem}")
    with pytest.raises(PlannerError, match="does not exist"):
        run_planner(config, tmp_path / "no.pddl", tmp_path / "no2.pddl")
