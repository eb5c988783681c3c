"""Smoke tests for the example scripts.

The full scripts run for tens of seconds; here we check that every example
module imports cleanly and exposes a ``main`` entry point, and we execute the
quickest entry points directly so regressions in the public API surface are
caught by the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = [
    "quickstart.py",
    "p2p_gossip.py",
    "sensor_stream.py",
    "adversarial_lower_bound.py",
    "results_warehouse.py",
    "backends_fast_path.py",
    "batch_sweeps.py",
    "tracing_runs.py",
]


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesExist:
    def test_examples_directory_contains_expected_scripts(self):
        present = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        for name in EXAMPLE_FILES:
            assert name in present

    @pytest.mark.parametrize("name", EXAMPLE_FILES)
    def test_example_imports_and_has_main(self, name):
        module = load_example(name)
        assert callable(getattr(module, "main", None))


class TestQuickstartFunctions:
    def test_run_unicast_example_small(self, capsys):
        module = load_example("quickstart.py")
        module.run_unicast_example(num_nodes=8, num_tokens=10)
        captured = capsys.readouterr().out
        assert "Single-Source-Unicast" in captured
        assert "amortized" in captured

    def test_run_broadcast_example_small(self, capsys):
        module = load_example("quickstart.py")
        module.run_broadcast_example(num_nodes=8)
        captured = capsys.readouterr().out
        assert "flooding" in captured.lower()
        assert "free-edge" in captured


class TestResultsWarehouseExample:
    def test_second_merge_adds_nothing(self, capsys):
        module = load_example("results_warehouse.py")
        module.main(num_repetitions=2)
        captured = capsys.readouterr().out
        assert "first merge : 6 added, 0 skipped" in captured
        assert "second merge: 0 added, 6 skipped" in captured
