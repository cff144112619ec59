"""The package surface and what a cold start loads.

``import mypddl`` resolves its public names on first use (PEP 562), and
``mypddl.cli`` imports ``planner`` and ``scaffold`` only inside ``plan`` and
``new``. Every other layer module stays a module-level import of the CLI:
the benchmark forks each timed call from a process that has imported only
``mypddl.cli``, so a layer deferred into a command body would be imported
again in every call.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import mypddl
from mypddl.cli import main

SRC = str(Path(mypddl.__file__).resolve().parent.parent)


@pytest.mark.parametrize("name", sorted(set(mypddl.__all__) - {"__version__"}))
def test_each_public_name_is_its_defining_modules(name):
    namespace = {}
    exec(f"from mypddl import {name} as value", namespace)
    value = namespace["value"]
    assert value.__module__.startswith("mypddl.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert getattr(mypddl, name) is value


def test_dir_lists_every_public_name_and_unknown_names_are_missing():
    assert set(mypddl.__all__) <= set(dir(mypddl))
    assert not hasattr(mypddl, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        mypddl.no_such_name  # noqa: B018


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"{statement}; import json, sys; print(json.dumps([*sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return set(json.loads(done.stdout))


def test_a_submodule_still_imports_from_the_package():
    from mypddl import model
    assert model is sys.modules["mypddl.model"]
    assert model.parse_domain is mypddl.parse_domain
    # Also where nothing has imported the submodule yet.
    assert "mypddl.model" in _loaded_after(
        "from mypddl import model; assert model.__name__ == 'mypddl.model'")


def test_a_cold_import_loads_the_layers_and_nothing_only_plan_or_new_needs():
    assert {m for m in _loaded_after("import mypddl")
            if m.startswith("mypddl.")} == set()
    loaded = _loaded_after("import mypddl.cli")
    layers = {f"mypddl.{m}" for m in ("sexpr", "model", "highlight",
                                      "construct", "distance", "typegraph",
                                      "snippets")}
    assert layers <= loaded
    # What click loads by itself (``subprocess``, on Python 3.10) is no
    # import of this package's.
    own = loaded - _loaded_after("import click")
    assert own.isdisjoint({"mypddl.planner", "mypddl.scaffold", "subprocess",
                           "difflib", "dataclasses"})


def test_plan_help_shows_the_config_default():
    result = CliRunner().invoke(main, ["plan", "--help"])
    assert result.exit_code == 0
    assert "[default: mypddl.toml]" in result.output
