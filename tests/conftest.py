"""Test-tier markers: ``pytest -m "not slow"`` skips the end-to-end pipeline experiment."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py::TestCriterion8DirectionalPipeline" in item.nodeid:
            item.add_marker(pytest.mark.slow)
