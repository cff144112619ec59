import importlib.util
import json
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"
BENCHMARK_GEN = Path(__file__).parent.parent / "benchmarks" / "gen.py"


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def golden_json(name: str):
    return json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def benchmark_inputs(workload: str, seed: int):
    """The inputs that ``benchmarks/gen.py`` generates for a workload."""
    gen = sys.modules.get("benchmark_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location("benchmark_gen",
                                                      BENCHMARK_GEN)
        gen = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = gen  # its dataclasses look the module up
        spec.loader.exec_module(gen)
    return gen.generate(workload, seed)


@pytest.fixture
def corpus() -> Path:
    return CORPUS


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def splisus_text() -> str:
    return corpus_text("splisus.pddl")


@pytest.fixture
def store_text() -> str:
    return corpus_text("store.pddl")


@pytest.fixture
def gary_problem(tmp_path: Path) -> Path:
    target = tmp_path / "garys_huge_problem.pddl"
    target.write_text(corpus_text("garys_huge_problem.pddl"), encoding="utf-8")
    return target


@pytest.fixture
def gary_pizza_problem(tmp_path: Path) -> Path:
    target = tmp_path / "gary_pizza_problem.pddl"
    target.write_text(corpus_text("gary_pizza_problem.pddl"), encoding="utf-8")
    return target
