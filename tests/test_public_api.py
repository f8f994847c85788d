"""Public API surface: everything the README promises imports and works."""

import importlib

import pytest


class TestTopLevelExports:
    def test_all_names_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_readme_quickstart_surface(self):
        """The exact imports the README's quickstart uses."""
        from repro.api import (  # noqa: F401
            ScreeningStats,
            default_trace_set,
            evaluate,
            sweep,
        )


@pytest.mark.parametrize(
    "module",
    [
        "repro.api",
        "repro.core",
        "repro.core.indexing",
        "repro.core.functions",
        "repro.core.twolevel",
        "repro.core.confidence",
        "repro.core.schemes",
        "repro.core.cost",
        "repro.core.space",
        "repro.core.update",
        "repro.core.evaluator",
        "repro.core.vectorized",
        "repro.metrics",
        "repro.metrics.confusion",
        "repro.metrics.screening",
        "repro.metrics.traffic",
        "repro.forwarding",
        "repro.forwarding.simulator",
        "repro.forwarding.topology",
        "repro.memory",
        "repro.memory.address",
        "repro.memory.cache",
        "repro.memory.directory",
        "repro.memory.protocol",
        "repro.memory.system",
        "repro.trace",
        "repro.trace.events",
        "repro.trace.builder",
        "repro.trace.io",
        "repro.trace.stats",
        "repro.trace.patterns",
        "repro.workloads",
        "repro.workloads.base",
        "repro.workloads.scheduler",
        "repro.workloads.layout",
        "repro.workloads.registry",
        "repro.engine",
        "repro.engine.base",
        "repro.engine.backends",
        "repro.engine.parallel",
        "repro.harness",
        "repro.harness.runner",
        "repro.harness.experiments",
        "repro.harness.experiments.base",
        "repro.harness.experiments.tables",
        "repro.harness.experiments.sweeps",
        "repro.harness.experiments.figures",
        "repro.harness.experiments.traffic",
        "repro.harness.extensions",
        "repro.harness.results",
        "repro.harness.tables",
        "repro.harness.figures",
        "repro.harness.cli",
        "repro.util",
        "repro.util.bitmaps",
        "repro.util.persist",
        "repro.util.rng",
    ],
)
def test_module_imports_and_is_documented(module):
    imported = importlib.import_module(module)
    assert imported.__doc__, f"{module} lacks a module docstring"


def test_doctests_pass():
    """Run the doctest examples embedded in docstrings."""
    import doctest

    for module in (
        "repro.util.bitmaps",
        "repro.core.indexing",
        "repro.metrics.traffic",
    ):
        results = doctest.testmod(importlib.import_module(module))
        assert results.failed == 0, module
