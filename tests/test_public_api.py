"""Tests of the top-level public API surface."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.api

#: The checked-in snapshot of the curated public surface.  If you change
#: ``repro.__all__`` or ``repro.api.__all__`` on purpose, regenerate it:
#:   PYTHONPATH=src python -c "import json, repro, repro.api; print(json.dumps(
#:       {'repro': sorted(repro.__all__),
#:        'repro.api': sorted(repro.api.__all__)}, indent=2))" \
#:     > tests/data/public_api_surface.json
SNAPSHOT_PATH = pathlib.Path(__file__).parent / "data" / "public_api_surface.json"


class TestPublicApi:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing attribute {name}"

    def test_key_entry_points_present(self):
        for name in (
            "Simulator",
            "single_source_problem",
            "multi_source_problem",
            "n_gossip_problem",
            "SingleSourceUnicastAlgorithm",
            "MultiSourceUnicastAlgorithm",
            "ObliviousMultiSourceAlgorithm",
            "FloodingAlgorithm",
            "LowerBoundAdversary",
            "ControlledChurnAdversary",
            "render_table1",
            "table1_rows",
        ):
            assert name in repro.__all__

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.dynamics",
            "repro.adversaries",
            "repro.algorithms",
            "repro.analysis",
            "repro.backends",
            "repro.utils",
        ):
            assert importlib.import_module(module) is not None

    def test_docstring_mentions_the_paper(self):
        assert "Dynamic Networks" in repro.__doc__

    def test_end_to_end_through_public_names_only(self):
        problem = repro.single_source_problem(6, 3)
        result = repro.Simulator(
            problem,
            repro.SingleSourceUnicastAlgorithm(),
            repro.ControlledChurnAdversary(changes_per_round=1, edge_probability=0.4),
            seed=1,
        ).run()
        assert result.completed
        assert result.amortized_messages() > 0
        assert isinstance(repro.render_table1(64), str)

    def test_schedule_serialization_exposed(self):
        schedule = repro.static_path_schedule(4)
        restored = repro.schedule_from_json(repro.schedule_to_json(schedule))
        assert restored == schedule

    def test_error_hierarchy_is_public_and_unified(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.ExperimentError, repro.ReproError)
        from repro.results import RecordValidationError

        assert issubclass(RecordValidationError, repro.ReproError)

    def test_fluent_api_is_exported_at_the_top_level(self):
        for name in ("Experiment", "ExperimentPlan", "RunSet", "Aggregate",
                     "Comparison", "load_runs"):
            assert name in repro.__all__
            assert getattr(repro, name) is getattr(repro.api, name)


class TestPublicApiSnapshot:
    """The curated surface is pinned: changing it requires updating the
    snapshot file (see SNAPSHOT_PATH's docstring for the one-liner), which
    makes accidental API growth or breakage visible in review and CI."""

    def snapshot(self):
        return json.loads(SNAPSHOT_PATH.read_text())

    def test_api_module_all_names_resolve(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name)

    def test_top_level_surface_matches_the_snapshot(self):
        assert sorted(repro.__all__) == self.snapshot()["repro"], (
            "repro.__all__ changed; if intentional, regenerate "
            f"{SNAPSHOT_PATH} (see its docstring)"
        )

    def test_api_surface_matches_the_snapshot(self):
        assert sorted(repro.api.__all__) == self.snapshot()["repro.api"], (
            "repro.api.__all__ changed; if intentional, regenerate "
            f"{SNAPSHOT_PATH} (see its docstring)"
        )

    def test_all_lists_are_duplicate_free(self):
        assert len(repro.__all__) == len(set(repro.__all__))
        assert len(repro.api.__all__) == len(set(repro.api.__all__))


def package_exports(init_path):
    """``(type-checking imports, lazy table, eager names)`` of a package ``__init__``."""
    checked, table, eager = {}, {}, set()
    for node in ast.parse(init_path.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            for statement in node.body:
                checked[statement.module] = tuple(alias.name for alias in statement.names)
        elif isinstance(node, ast.ImportFrom):
            eager.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "lazy_namespace":
                table = ast.literal_eval(node.value.args[1])
            else:
                eager.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return checked, table, eager


class TestLazyNamespaces:
    """A package lists each lazily exported name twice: in the table its
    ``__getattr__`` resolves at run time and in the ``if TYPE_CHECKING:``
    imports that type checkers read.  Both lists must agree, and
    ``__all__`` must name exactly the exports."""

    INITS = sorted(pathlib.Path(repro.__file__).parent.rglob("__init__.py"))

    @pytest.mark.parametrize("init_path", INITS, ids=lambda path: path.parent.name)
    def test_type_checking_imports_match_the_lazy_table(self, init_path):
        checked, table, eager = package_exports(init_path)
        assert table, f"{init_path} has no lazy_namespace table"
        assert checked == table
        package = importlib.import_module(
            ".".join(init_path.parent.relative_to(pathlib.Path(repro.__file__).parents[1]).parts)
        )
        lazy = {name for names in table.values() for name in names}
        assert lazy <= set(package.__all__)
        assert set(package.__all__) <= lazy | eager

    def test_a_submodule_resolves_as_an_attribute_of_its_package(self):
        script = textwrap.dedent(
            """
            import repro
            print(repro.api.Experiment.__name__, repro.core.rounds.RoundKernel.__name__)
            print(hasattr(repro, "no_such_name"), hasattr(repro.core, "no_such_module"))
            """
        )
        assert run_fresh_interpreter(script).stdout.split() == [
            "Experiment", "RoundKernel", "False", "False",
        ]


class TestTyping:
    def test_py_typed_marker_ships_with_the_package(self):
        package_dir = pathlib.Path(repro.__file__).parent
        assert (package_dir / "py.typed").exists(), (
            "src/repro/py.typed is the PEP 561 marker telling type-checkers "
            "to read the package's inline annotations"
        )

    def test_packaging_declares_the_marker(self):
        pyproject = pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
        assert pyproject.exists()
        assert "py.typed" in pyproject.read_text()


class TestCoreWithoutNumpy:
    """``pyproject.toml`` promises a core that needs only the standard
    library; numpy is the ``repro[fast]`` extra and networkx the
    ``repro[graphs]`` extra.  A fresh interpreter with both blocked must
    import the package and every public name of it and its subpackages,
    load every built-in component, plan experiments, and explain the
    missing extra only where it is really needed."""

    SCRIPT = textwrap.dedent(
        """
        import importlib
        import pkgutil
        import sys
        sys.modules["numpy"] = None
        sys.modules["networkx"] = None

        import repro
        import repro.api
        import repro.backends
        import repro.warehouse
        from repro.analysis.experiments import fit_power_law

        packages = ["repro"] + [
            info.name
            for info in pkgutil.iter_modules(repro.__path__, "repro.")
            if info.ispkg
        ]
        for package in packages:
            module = importlib.import_module(package)
            for name in module.__all__:
                getattr(module, name)
        registries = (
            repro.ALGORITHM_REGISTRY,
            repro.ADVERSARY_REGISTRY,
            repro.PROBLEM_REGISTRY,
            repro.backends.BACKEND_REGISTRY,
        )
        factories = [entry.factory for registry in registries for entry in registry.entries()]
        print("resolved", len(packages), "packages,", len(factories), "factories")

        plan = repro.Experiment.grid(
            algorithm="single-source", adversary="churn",
            num_nodes=[6, 8], num_tokens=4,
        ).seeds(2).plan()
        assert len(plan.cells) == 4, plan.cells
        try:
            fit_power_law([1.0, 2.0], [1.0, 4.0])
        except repro.ConfigurationError as error:
            print("ConfigurationError:", error)
        else:
            raise SystemExit("fit_power_law ran without numpy")

        trace = repro.DynamicGraphTrace([0, 1, 2])
        trace.record_round([(0, 1), (1, 2)])
        schedule = repro.static_path_schedule(3)
        for owner in (trace, schedule):
            try:
                owner.graph(1)
            except repro.ConfigurationError as error:
                print("graph ConfigurationError:", error)
            else:
                raise SystemExit(f"{type(owner).__name__}.graph ran without networkx")
        """
    )

    def test_import_and_plan_without_numpy(self):
        completed = run_fresh_interpreter(self.SCRIPT)
        assert "ConfigurationError:" in completed.stdout
        assert "repro[fast]" in completed.stdout

    def test_every_public_name_and_builtin_resolves_without_numpy(self):
        line = run_fresh_interpreter(self.SCRIPT).stdout.splitlines()[0]
        _, packages, _, factories, _ = line.split()
        # Twelve subpackages under repro; 7 algorithms, 14 adversaries,
        # 4 problems and 3 backends are built in.
        assert int(packages) >= 13 and int(factories) >= 28, line

    def test_graph_exports_name_the_graphs_extra_without_networkx(self):
        lines = [
            line
            for line in run_fresh_interpreter(self.SCRIPT).stdout.splitlines()
            if line.startswith("graph ConfigurationError:")
        ]
        assert len(lines) == 2, lines
        trace_line, schedule_line = lines
        assert "DynamicGraphTrace.graph()" in trace_line
        assert "GraphSchedule.graph()" in schedule_line
        for line in lines:
            assert "repro[graphs]" in line


class TestStdlibOnlyStartup:
    """A fresh ``import repro`` that plans one spec of each benchmark shape
    loads nothing outside the standard library, nor sqlite3, and of
    ``repro`` itself nothing that only running, reporting, the warehouse
    index or the CLI needs: every experiment process pays for what this
    start imports."""

    #: ``repro`` modules a start must not load (a trailing dot: any submodule).
    NOT_AT_START = (
        "repro.algorithms.",
        "repro.core.rounds",
        "repro.core.engine",
        "repro.batch.",
        "repro.backends.bitset",
        "repro.backends.reference",
        "repro.backends.differential",
        "repro.analysis.",
        "repro.results.report",
        "repro.results.compare",
        "repro.obs.metrics",
        "repro.obs.tracing",
        "repro.obs.trace",
        "repro.warehouse.consolidated",
        "repro.warehouse.index",
        "repro.warehouse.query",
        "repro.cli",
        "repro.benchmark",
    )

    SCRIPT = textwrap.dedent(
        """
        import json
        import sys

        before = set(sys.modules)
        import repro
        import repro.backends
        import repro.warehouse

        specs = [
            repro.ScenarioSpec(
                problem="single-source",
                problem_params={{"num_nodes": 8, "num_tokens": 16}},
                algorithm="single-source",
                adversary="churn",
                adversary_params={{"changes_per_round": 3, "edge_probability": 0.3}},
                seed=1,
            ),
            repro.ScenarioSpec(
                problem="multi-source",
                problem_params={{"num_nodes": 18, "num_sources": 12, "num_tokens": 12, "seed": 1}},
                algorithm="oblivious",
                algorithm_params={{"force_two_phase": True, "center_probability": 0.2}},
                adversary="rewiring-regular",
                adversary_params={{"num_nodes": 18, "num_rounds": 200, "degree": 6, "seed": 1}},
                seed=1,
            ),
            repro.ScenarioSpec(
                problem="random-placement",
                problem_params={{"num_nodes": 8, "num_tokens": 8, "seed": 1}},
                algorithm="flooding",
                adversary="lower-bound",
                seed=1,
            ),
        ]
        plan = repro.Experiment.from_specs(specs).seeds(2).store({store!r}).plan()
        assert len(plan.cells) == 6, plan.cells

        loaded = set(sys.modules) - before
        print(json.dumps({{
            "outside": sorted(
                name for name in loaded
                if name.partition(".")[0] not in sys.stdlib_module_names
                and name.partition(".")[0] != "repro"
            ),
            "heavy": [
                name for name in ("networkx", "numpy", "multiprocessing", "sqlite3")
                if name in sys.modules
            ],
            "repro": sorted(name for name in loaded if name.partition(".")[0] == "repro"),
        }}))
        """
    )

    def loaded(self, tmp_path):
        script = self.SCRIPT.format(store=str(tmp_path / "store"))
        return json.loads(run_fresh_interpreter(script).stdout.splitlines()[-1])

    def test_import_and_plan_load_only_the_standard_library(self, tmp_path):
        loaded = self.loaded(tmp_path)
        assert loaded["outside"] == [], loaded["outside"]
        assert loaded["heavy"] == [], loaded["heavy"]

    def test_import_and_plan_load_no_engine_report_or_cli_module(self, tmp_path):
        repro_modules = self.loaded(tmp_path)["repro"]
        assert "repro.api" in repro_modules, repro_modules
        unexpected = [
            name
            for name in repro_modules
            if any(
                name.startswith(prefix) if prefix.endswith(".") else name == prefix
                for prefix in self.NOT_AT_START
            )
        ]
        assert unexpected == [], unexpected


class TestFirstImport:
    """Any module can be the first one a process imports: a user's script or
    a spawned worker may start from a module's documented home."""

    @pytest.mark.parametrize(
        "statement",
        ["import repro.batch.backend", "from repro.batch.backend import BatchBackend"],
    )
    def test_the_batch_backend_imports_first(self, statement):
        script = textwrap.dedent(
            f"""
            {statement}
            from repro.backends import BACKEND_REGISTRY, BatchBackend
            assert BACKEND_REGISTRY.get("batch").factory is BatchBackend
            print(BatchBackend.name)
            """
        )
        assert run_fresh_interpreter(script).stdout.split() == ["batch"]


def run_fresh_interpreter(script):
    """Run ``script`` in a new interpreter importing this checkout's repro."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed


class TestNumpyOnlyForVectorizableGroups:
    """A sweep consults numpy only for a group that would run on the batch
    engine: single-source has no batch program, so its repetition groups
    neither import numpy nor warn that the missing extra costs speed."""

    SWEEPS = textwrap.dedent(
        """
        import sys
        {block}
        import repro
        from repro.obs.logs import configure_logging

        configure_logging(stream=sys.stdout)

        def sweep(algorithm, adversary):
            repro.Experiment.grid(
                algorithm=algorithm, adversary=adversary, num_nodes=8, num_tokens=4,
            ).seeds(2).run().records()
            print("swept", algorithm)

        sweep("single-source", "churn")
        print("numpy imported:", sys.modules.get("numpy") is not None)
        {more}
        """
    )

    WARNING = "numpy is not installed"

    def test_only_a_vectorizable_group_warns_without_numpy(self):
        script = self.SWEEPS.format(
            block='sys.modules["numpy"] = None',
            more='sweep("flooding", "static-random")',
        )
        out = run_fresh_interpreter(script).stdout
        single_source, flooding = out.split("swept single-source")
        assert self.WARNING not in single_source
        assert flooding.count(self.WARNING) == 1
        assert "swept flooding" in flooding

    def test_a_non_vectorizable_sweep_never_imports_numpy(self):
        pytest.importorskip("numpy")
        out = run_fresh_interpreter(self.SWEEPS.format(block="", more="")).stdout
        assert "numpy imported: False" in out
