"""Import budgets: each process loads only the layers it runs.

Package ``__init__`` modules are lazy namespaces (:mod:`repro._lazy`),
so what a process imports is decided by what it uses.  Every case runs
in a fresh interpreter and asserts on the ``sys.modules`` it ends with.
Without numpy installed the "no numpy" assertions hold trivially; CI
also runs this file in a job that installs numpy.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Layers a checker process never runs.
NOT_CHECKER = ("numpy", "repro.sim.kernel", "repro.store",
               "repro.parallel.engine", "repro.obs.journal",
               "repro.obs.telemetry")


def loaded(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def assert_absent(modules: set, names) -> None:
    assert not modules & set(names), sorted(modules & set(names))


def test_import_repro_is_light():
    modules = loaded("import repro")
    assert_absent(modules, ("numpy", "repro.sim.kernel", "repro.core",
                            "repro.store"))


def test_submodules_resolve_after_bare_import():
    modules = loaded(
        "import repro\n"
        "assert repro.sim.kernel.Simulation is repro.Simulation\n"
        "assert repro.checker.statespace.explore_fast")
    assert {"repro.sim.kernel", "repro.checker.statespace"} <= modules


def test_frontier_worker_imports():
    # What a spawned frontier worker imports before it serves the
    # parent: its module, the engine's module and the protocol.
    modules = loaded(
        "import repro.parallel.frontier\n"
        "import repro.checker.statespace\n"
        "from repro.parallel.tasks import ProtocolSpec\n"
        "ProtocolSpec('n', 4)()")
    assert_absent(modules, NOT_CHECKER)
    # A protocol spec imports its own protocol module only.
    assert "repro.core.n_process" in modules
    assert_absent(modules, ("repro.core.three_bounded",
                            "repro.core.two_process"))


@pytest.mark.parametrize("engine", ["fingerprints", "objects"])
def test_verify_parent(engine):
    modules = loaded(
        "from repro.cli import main\n"
        f"assert main(['verify', '--engine', {engine!r}, '--protocol',"
        " 'n', '--inputs', 'a,b,a,b', '--depth', '4']) == 0")
    assert_absent(modules, NOT_CHECKER)


def test_sched_does_not_load_the_checker():
    assert_absent(loaded("import repro.sched"),
                  ("repro.checker", "repro.sim.kernel"))
    modules = loaded("from repro.sched import RandomScheduler, "
                     "SplitVoteAdversary")
    assert_absent(modules, ("numpy", "repro.checker",
                            "repro.checker.statespace"))


class TestShardWorkerPreload:
    """A sweep worker imports its batch's layers before reporting
    ready, so import time never counts against a shard's watchdog."""

    @staticmethod
    def preloaded(protocol: str, engine: str) -> set:
        """Modules after ``_preload``; running a shard adds none."""
        return loaded(
            "import sys\n"
            "from repro.parallel.engine import (BatchSpec, ShardTask, "
            "_execute_shard, _preload)\n"
            "from repro.parallel.tasks import (ConstantInputs, "
            "ProtocolSpec, SchedulerSpec)\n"
            f"spec = BatchSpec(ProtocolSpec({protocol!r}, 3), "
            "SchedulerSpec('random'), ConstantInputs(('a', 'b', 'a')), "
            f"seed=1, engine={engine!r})\n"
            "_preload(spec)\n"
            "before = set(sys.modules)\n"
            "_execute_shard(ShardTask(spec=spec, start=0, stop=8, "
            "max_steps=5000, with_metrics=True, journal_path=None, "
            "shard_index=0, telemetry=False), lambda beat: None)\n"
            "assert set(sys.modules) == before, "
            "sorted(set(sys.modules) - before)")

    def test_vector_spec_loads_protocol_and_vector_engine(self):
        modules = self.preloaded("three-bounded", "vector")
        assert {"repro.core.three_bounded", "repro.ir.vector",
                "repro.sim.runner", "repro.sim.kernel"} <= modules
        assert_absent(modules, ("repro.checker",))

    def test_fast_spec_loads_no_table_ir(self):
        modules = self.preloaded("three-bounded", "fast")
        assert {"repro.core.three_bounded", "repro.sim.runner",
                "repro.sched.simple"} <= modules
        assert_absent(modules, ("numpy", "repro.ir.vector",
                                "repro.checker"))
