"""The reach check passes: every function of the package serves a command
or has a reason in its ``KEPT`` map, which the README lists."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check_reach

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = Path(check_reach.__file__)


def _run(script: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)


def test_the_reach_check_passes():
    result = _run(SCRIPT)
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"{len(check_reach.KEPT)} kept for a reason" in result.stdout


@pytest.mark.parametrize("where, edit, named", [
    ("src/mypddl/sexpr.py", lambda text: text + "\n\ndef _orphan():\n"
     "    return None\n", ["sexpr._orphan (src/mypddl/sexpr.py:"]),
    ("tests/check_reach.py", lambda text: text.replace(
        "KEPT = {\n", 'KEPT = {\n    "model.parse_domain": LIBRARY,\n'
        '    "model.parse_nothing": LIBRARY,\n'),
     ["KEPT names model.parse_domain, which a command reaches",
      "KEPT names model.parse_nothing, which no function is"]),
], ids=["uncalled-function", "stale-kept-names"])
def test_the_reach_check_fails_on_a_copy_with_a_defect(tmp_path, where,
                                                       edit, named):
    """On a copy of what the check reads, a function that nothing calls, or
    a stale ``KEPT`` entry, makes it exit 1 and name each."""
    for part in ("src/mypddl", "tests/corpus", "tests/fixtures"):
        shutil.copytree(ROOT / part, tmp_path / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for part in ("tests/check_reach.py", "benchmarks/gen.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / part, tmp_path / part)
    path = tmp_path / where
    text = path.read_text(encoding="utf-8")
    path.write_text(edit(text), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    result = _run(tmp_path / "tests" / "check_reach.py")
    assert result.returncode == 1, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == len(named), result.stdout
    for line, expected in zip(lines, named):
        assert expected in line, result.stdout


def test_the_readme_lists_the_kept_names_with_their_reasons():
    """Each line of the README's list of library-only names is a reason,
    then the names ``KEPT`` keeps for it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Library-only names\n", 1)[1].split("\n#", 1)[0]
    listed = {}
    for line in re.findall(r"^- (.*(?:\n  .*)*)", section, re.MULTILINE):
        reason, names = " ".join(line.split()).split(": ", 1)
        listed.update(dict.fromkeys(re.findall(r"`([^`]+)`", names), reason))
    assert listed == check_reach.KEPT
