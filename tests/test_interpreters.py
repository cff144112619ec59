"""The stdlib-only cross-interpreter check agrees with this interpreter, so
its recorded digests stay in step with the tokenizer and its distance rows
with ``euclidean``."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).with_name("check_interpreters.py")


def test_the_interpreter_check_passes():
    result = subprocess.run([sys.executable, str(SCRIPT)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "20 inputs match, a forest pickles, and 3120 distances equal " \
        "euclidean's bit for bit" in result.stdout
