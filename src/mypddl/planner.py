"""External planner invocation through a configurable command template.

Any planner works: the template is an ordinary command line with
``{domain}``, ``{problem}`` and ``{solution_dir}`` placeholders, so planners
with wildly different argument shapes only differ in configuration. The
command runs without a shell and placeholders are substituted per token,
which keeps paths with spaces intact.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional

from .sexpr import MyPddlError


class PlannerError(MyPddlError):
    pass


@dataclass(frozen=True)
class PlannerConfig:
    command_template: str
    timeout_seconds: Optional[int] = None
    solution_dir: str = "solutions"

    def __post_init__(self) -> None:
        for placeholder in ("{domain}", "{problem}"):
            if placeholder not in self.command_template:
                raise PlannerError(
                    f"planner command template must contain {placeholder}: "
                    f"{self.command_template!r}")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise PlannerError("timeout must be a positive number of seconds")


@dataclass(frozen=True)
class PlanResult:
    exit_code: Optional[int]
    stdout: str
    stderr: str
    elapsed: float
    solution_path: Optional[Path]
    timed_out: bool = False


_CONFIG_KEYS = {
    "command": str,
    "timeout_seconds": int,
    "solution_dir": str,
}


def parse_config(text: str) -> PlannerConfig:
    """Read the INI-like ``key = "value"`` lines of mypddl.toml."""
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or key not in _CONFIG_KEYS:
            raise PlannerError(
                f"line {line_no} of planner config not understood: {raw!r}")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise PlannerError(f"bad value for {key}: {value!r}") from exc
    if "command" not in values:
        raise PlannerError("planner config has no 'command' entry")
    return PlannerConfig(
        command_template=values["command"],
        timeout_seconds=values.get("timeout_seconds"),
        solution_dir=values.get("solution_dir", "solutions"))


def load_config(path: Path) -> PlannerConfig:
    path = Path(path)
    if not path.is_file():
        raise PlannerError(
            f"no planner configuration at {path}; create it with a line like "
            f'command = "my-planner {{domain}} {{problem}}"')
    return parse_config(path.read_text(encoding="utf-8"))


def substitute_template(template: str, mapping: dict[str, str]) -> list[str]:
    """Split the template like a shell would, then substitute placeholders
    inside each token. Pure; substituted values are never re-split."""
    argv = []
    for token in shlex.split(template):
        for key, value in mapping.items():
            token = token.replace("{" + key + "}", value)
        argv.append(token)
    if not argv:
        raise PlannerError("planner command template is empty")
    return argv


def _snapshot(directory: Path) -> dict[Path, float]:
    if not directory.is_dir():
        return {}
    return {p: p.stat().st_mtime for p in directory.rglob("*") if p.is_file()}


def run_planner(config: PlannerConfig, domain: Path, problem: Path,
                solution_dir: Optional[Path] = None) -> PlanResult:
    """Run the configured planner on a domain/problem pair.

    After the run, the newest file that appeared (or changed) under the
    solution directory is reported as the solution. A missing executable
    raises PlannerError. The run ends when the planner itself exits or
    outlives the timeout, which sets the ``timed_out`` flag; either way the
    planner's whole process group is killed, so nothing it started outlives
    the run. Output that is not UTF-8 is decoded with replacement
    characters.
    """
    domain = Path(domain)
    problem = Path(problem)
    for path in (domain, problem):
        if not path.is_file():
            raise PlannerError(f"input file {path} does not exist")
    if solution_dir is None:
        solution_dir = Path(config.solution_dir)
    solution_dir = Path(solution_dir)

    argv = substitute_template(config.command_template, {
        "domain": str(domain),
        "problem": str(problem),
        "solution_dir": str(solution_dir),
    })
    before = _snapshot(solution_dir)
    # Files, not pipes, take the output: a process the planner started can
    # hold a pipe open after the planner exits, and no one waits for it.
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        try:
            # A session of its own puts the planner and everything it
            # starts in one process group, which is killed as a whole.
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    start_new_session=True)
        except FileNotFoundError as exc:
            raise PlannerError(
                f"planner executable not found: {argv[0]!r}") from exc
        except OSError as exc:
            raise PlannerError(f"cannot run planner {argv[0]!r}: {exc}") from exc
        try:
            exit_code = proc.wait(timeout=config.timeout_seconds)
        except subprocess.TimeoutExpired:
            exit_code = None
        finally:
            _kill_group(proc)
            proc.wait()
        elapsed = time.monotonic() - start
        stdout, stderr = _text(out), _text(err)

    # A planner that timed out reports no solution.
    after = {} if exit_code is None else _snapshot(solution_dir)
    new_files = [p for p, mtime in after.items()
                 if p not in before or mtime > before[p]]
    solution_path = max(new_files, key=lambda p: after[p], default=None)
    return PlanResult(exit_code=exit_code, stdout=stdout,
                      stderr=stderr, elapsed=elapsed,
                      solution_path=solution_path, timed_out=exit_code is None)


def _text(file: IO[bytes]) -> str:
    """A file's bytes as text pipes give them: UTF-8 with replacement
    characters, and universal newlines."""
    file.seek(0)
    text = file.read().decode("utf-8", "replace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the planner's whole process group, grandchildren included."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
