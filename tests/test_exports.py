"""The export lists: every exported name resolves, and none is listed twice."""

import importlib

import pytest

import adderbound

MODULES = ["bounds", "cli", "distributions", "entropy", "families", "systems", "verify"]


@pytest.mark.parametrize("name", ["adderbound", *(f"adderbound.{m}" for m in MODULES)])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_sorted():
    assert adderbound.__all__ == sorted(adderbound.__all__)
