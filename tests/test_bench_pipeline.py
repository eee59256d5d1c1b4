"""Every figure benchmark reaches the simulator through one runner.

``benchmarks/_harness.sweep`` (``ParallelCampaign``) is the only path
from a ``benchmarks/bench_*.py`` file to a ``System`` run, so
``REPRO_BENCH_JOBS``, ``REPRO_BENCH_CACHE`` and ``REPRO_BENCH_JOURNAL``
apply to every figure and mechanism variants share warm state. These
checks read the bench files' syntax trees; nothing is simulated.
"""

import ast
from pathlib import Path

import pytest

BENCH_FILES = sorted(
    (Path(__file__).resolve().parents[1] / "benchmarks").glob("bench_*.py")
)
#: Entry points that run a System outside the figure pipeline.
DIRECT_RUNNERS = {"run_workload", "run_mix", "System"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> set[str]:
    """Names imported from a module or reached as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _called_names(tree: ast.Module) -> set[str]:
    """Bare and dotted call targets: ``sweep(...)``, ``TaskSpec.mix(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                func = func.value
            if isinstance(func, ast.Name):
                names.add(func.id)
    return names


def test_bench_files_found():
    assert len(BENCH_FILES) >= 15


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_no_direct_simulator_entry_point(path):
    assert not _imported_names(_tree(path)) & DIRECT_RUNNERS


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.stem)
def test_task_specs_go_through_sweep(path):
    called = _called_names(_tree(path))
    if "TaskSpec" in called:
        assert "sweep" in called
