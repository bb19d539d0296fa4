"""Tests for the error hierarchy, public API surface, and repo hygiene."""

from __future__ import annotations

import importlib
import pathlib

import pytest

import repro
from repro.errors import (
    AccessViolation,
    ExplorationLimitError,
    ProtocolError,
    RegisterSemanticsError,
    ReproError,
    SimulationError,
    VerificationError,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (ProtocolError, AccessViolation, SimulationError,
                    VerificationError, ExplorationLimitError,
                    RegisterSemanticsError):
            assert issubclass(exc, ReproError)

    def test_one_except_clause_catches_everything(self):
        with pytest.raises(ReproError):
            raise AccessViolation("nope")

    def test_exploration_limit_carries_partial_progress(self):
        err = ExplorationLimitError("budget", states_explored=123)
        assert err.states_explored == 123


#: Packages whose ``__init__`` is a lazy namespace (repro._lazy).
LAZY_PACKAGES = ("repro", "repro.core", "repro.sim", "repro.sched",
                 "repro.obs", "repro.parallel", "repro.checker", "repro.ir")


class TestPublicApi:
    def test_dunder_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_export_resolves(self, package):
        pkg = importlib.import_module(package)
        assert len(set(pkg.__all__)) == len(pkg.__all__)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            # Exports resolve to the defining module's object.
            module = getattr(value, "__module__", None)
            if module is not None and module.startswith("repro."):
                assert getattr(importlib.import_module(module), name) \
                    is value, (package, name)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_lists_every_export(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        assert not hasattr(pkg, "no_such_name")
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(pkg, "no_such_name")

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(namespace)

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_headline_quickstart_from_docstring(self):
        # The module docstring's example must keep working verbatim.
        from repro import TwoProcessProtocol, solve

        outcome = solve(TwoProcessProtocol(), ["a", "b"], seed=1)
        assert outcome.consistent and outcome.value in ("a", "b")

    def test_subpackages_importable(self):
        import repro.apps
        import repro.analysis
        import repro.checker
        import repro.core
        import repro.msgpass
        import repro.registers
        import repro.sched
        import repro.sim  # noqa: F401


class TestRepositoryHygiene:
    """Documentation claims that can rot are tested like code."""

    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "LICENSE", "docs/MODEL.md", "docs/PROTOCOLS.md",
                     "docs/VERIFICATION.md"):
            assert (ROOT / name).is_file(), name

    def test_design_names_existing_bench_files(self):
        text = (ROOT / "DESIGN.md").read_text()
        import re

        for match in re.finditer(r"benchmarks/([a-z_0-9]+\.py)", text):
            assert (ROOT / "benchmarks" / match.group(1)).is_file(), (
                match.group(0)
            )

    def test_readme_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        import re

        for match in re.finditer(r"examples/([a-z_0-9]+\.py)", text):
            assert (ROOT / "examples" / match.group(1)).is_file(), (
                match.group(0)
            )

    def test_findings_cross_referenced(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for finding in ("F1", "F2", "F3", "F4", "F5"):
            assert f"### {finding}" in experiments, finding

    def test_every_source_module_has_a_docstring(self):
        import ast

        for path in (ROOT / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a docstring"
