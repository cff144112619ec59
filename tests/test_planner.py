"""Planner harness tests: config parsing, substitution, subprocess runs."""

import os
import sys
import time
from pathlib import Path

import pytest

from mypddl.planner import (
    PlannerConfig,
    PlannerError,
    load_config,
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


@pytest.mark.parametrize("text", [
    '# my planner\ncommand = "solve {domain} {problem}"\n',
    'command = "solve {domain} {problem}"\n',
], ids=["before-a-comment", "before-the-command"])
def test_a_config_that_starts_with_a_byte_order_mark_is_read(tmp_path, text):
    path = tmp_path / "mypddl.toml"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_config(path) == parse_config(text)
    assert load_config(path).command_template == "solve {domain} {problem}"


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


@pytest.mark.parametrize("timeout", [0, -5])
def test_a_timeout_that_is_not_positive_is_rejected(timeout):
    with pytest.raises(PlannerError, match="timeout must be a positive"):
        PlannerConfig(command_template="solve {domain} {problem}",
                      timeout_seconds=timeout)
    with pytest.raises(PlannerError, match="timeout must be a positive"):
        parse_config('command = "solve {domain} {problem}"\n'
                     f"timeout_seconds = {timeout}\n")


def test_a_timeout_that_is_no_integer_is_rejected():
    with pytest.raises(PlannerError,
                       match="bad value for timeout_seconds: 'soon'"):
        parse_config('command = "solve {domain} {problem}"\n'
                     'timeout_seconds = "soon"\n')


def test_an_empty_template_is_rejected():
    with pytest.raises(PlannerError, match="template is empty"):
        substitute_template("", {})


@pytest.mark.parametrize("template,message", [
    ('solve {domain} {problem} "unclosed', "No closing quotation"),
    ("solve {domain} {problem} \\", "No escaped character"),
])
def test_a_template_that_does_not_split_is_rejected(template, message):
    with pytest.raises(PlannerError, match=message):
        substitute_template(template, {"domain": "d", "problem": "p"})


def test_a_template_with_a_nul_byte_is_a_clean_error(pair, tmp_path):
    domain, problem = pair
    config = PlannerConfig(command_template=f"{PY} -c pass {{domain}} "
                                            f"{{problem}} a\0b")
    with pytest.raises(PlannerError, match="embedded null byte"):
        run_planner(config, domain, problem,
                    solution_dir=tmp_path / "solutions")


@pytest.mark.skipif(os.name != "posix", reason="the execute bit is POSIX")
def test_a_planner_that_cannot_be_executed_is_a_clean_error(pair, tmp_path):
    domain, problem = pair
    script = tmp_path / "planner"
    script.write_text("#!/bin/sh\n", encoding="utf-8")
    script.chmod(0o644)
    config = PlannerConfig(command_template=f"{script} {{domain}} {{problem}}")
    with pytest.raises(PlannerError, match="cannot run planner"):
        run_planner(config, domain, problem,
                    solution_dir=tmp_path / "solutions")


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


def _running_in_group(pgid):
    """The processes of group ``pgid`` that are still running, read from
    /proc; a zombie counts as gone, as nothing may reap it."""
    running = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while the group was read
            continue
        state, _, pgrp = text[text.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state not in "ZX":
            running.append(stat.parent.name)
    return running


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(),
                    reason="reads processes from /proc")
@pytest.mark.parametrize("timeout", [3, None])
@pytest.mark.parametrize("child_output", [
    "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL", "",
], ids=["devnull", "inherited"])
def test_the_run_ends_with_the_planner_and_ends_its_group(
        pair, tmp_path, child_output, timeout):
    """A planner that starts a child and exits at once: the run returns
    then, with the planner's exit code, and the child is killed, whether
    or not it holds the planner's stdout open."""
    domain, problem = pair
    pid_file = tmp_path / "planner.pid"
    stub = tmp_path / "forking_planner.py"
    stub.write_text(
        "import os, subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; "
        f"time.sleep(30)'], {child_output})\n"
        "print('planned')\n"
        f"open({str(pid_file)!r}, 'w').write(f'{{os.getpid()}} {{time.time()}}')\n",
        encoding="utf-8")
    config = PlannerConfig(
        command_template=f"{PY} {stub} {{domain}} {{problem}}",
        timeout_seconds=timeout)
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    returned = time.time()
    group, exited = pid_file.read_text().split()
    assert returned - float(exited) < 1
    assert (result.exit_code, result.timed_out) == (0, False)
    assert result.stdout == "planned\n"
    group = int(group)
    deadline = time.monotonic() + 2
    while _running_in_group(group) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _running_in_group(group) == []


def test_output_gets_universal_newlines(pair, tmp_path):
    domain, problem = pair
    config = PlannerConfig(command_template=(
        f"{PY} -c 'import sys; sys.stdout.buffer.write(b\"a\\r\\nb\\rc\\n\")' "
        f"{{domain}} {{problem}}"))
    result = run_planner(config, domain, problem,
                         solution_dir=tmp_path / "solutions")
    assert result.stdout == "a\nb\nc\n"


def test_missing_inputs_rejected(tmp_path):
    config = PlannerConfig(command_template="echo {domain} {problem}")
    with pytest.raises(PlannerError, match="does not exist"):
        run_planner(config, tmp_path / "no.pddl", tmp_path / "no2.pddl")
