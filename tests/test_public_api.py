"""Public-API surface tests: exports exist, __all__ is honest, version set."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro.core",
    "repro.noc",
    "repro.noc_gpu",
    "repro.engine",
    "repro.abstractnet",
    "repro.fullsys",
    "repro.dram",
    "repro.workloads",
    "repro.harness",
]


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module_name", ["repro"] + SUBPACKAGES)
    def test_all_names_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.__all__ lists {name}"

    def test_headline_entry_points(self):
        # The names the README's quickstart uses.
        assert callable(repro.build_cosim)
        assert callable(repro.TargetConfig)
        assert callable(repro.CoSimulator)
        assert callable(repro.SimdNetwork)
        assert callable(repro.CycleNetwork)

    def test_simd_network_is_one_object(self):
        import repro.engine
        import repro.noc_gpu

        assert repro.SimdNetwork is repro.noc_gpu.SimdNetwork is repro.engine.SimdNetwork

    def test_error_hierarchy_rooted(self):
        for name in (
            "ConfigError",
            "TopologyError",
            "RoutingError",
            "ProtocolError",
            "SimulationError",
            "WorkloadError",
        ):
            assert issubclass(getattr(repro, name), repro.ReproError)

    def test_experiment_registry_exposed(self):
        from repro.harness import ALL_EXPERIMENTS

        assert len(ALL_EXPERIMENTS) == 11
        for runner in ALL_EXPERIMENTS.values():
            assert callable(runner)


class TestReadmeSnippet:
    def test_quickstart_code_runs(self):
        """The README's programmatic quickstart, at tiny scale."""
        from repro import TargetConfig, build_cosim

        base = TargetConfig(width=2, height=2, app="water", scale=0.2)
        truth = build_cosim(base.variant(network_model="simd", quantum=1)).run()
        fixed = build_cosim(base.variant(network_model="fixed")).run()
        assert truth.mean_latency() > 0
        assert fixed.finish_cycle is not None


class TestRuntimeDependencies:
    def test_simd_cosim_builds_without_networkx(self):
        """``networkx`` is a ``test`` extra: building the detailed
        co-simulation must not import it (a third of the import time)."""
        code = (
            "import sys, repro\n"
            "from repro import TargetConfig, build_cosim\n"
            "build_cosim(TargetConfig(width=4, height=4, network_model='simd'))\n"
            "sys.exit('networkx' in sys.modules)\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr or "networkx was imported"
