"""The export lists: every exported name resolves, and none is listed twice."""

import importlib

import pytest

import adderbound

MODULES = ["bounds", "cli", "distributions", "entropy", "families", "systems", "verify"]
PACKAGE_MODULES = [m for m in MODULES if m != "cli"]


@pytest.mark.parametrize("name", ["adderbound", *(f"adderbound.{m}" for m in MODULES)])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_all_is_sorted():
    assert adderbound.__all__ == sorted(adderbound.__all__)


def test_package_exports_the_module_lists():
    # each public name is declared once, in its module: the package list is
    # their union and every name is the module's own object
    modules = [importlib.import_module(f"adderbound.{m}") for m in PACKAGE_MODULES]
    assert adderbound.__all__ == sorted(n for m in modules for n in m.__all__)
    for m in modules:
        assert [n for n in m.__all__ if getattr(adderbound, n) is not getattr(m, n)] == []
    # the package's `entropy` is the Shannon entropy function, not its module
    assert adderbound.entropy is importlib.import_module("adderbound.entropy").entropy
    assert adderbound.SearchBudgetError.__module__ == "adderbound.families"
    assert adderbound.EvaluationError.__module__ == "adderbound.bounds"


def test_systems_leaves_the_family_text_format_to_families():
    # systems writes and reads family texts only through families' writer and
    # reader; the line table, the per-mask writer, the header map and the
    # member parser stay private
    systems = importlib.import_module("adderbound.systems")
    families = importlib.import_module("adderbound.families")
    assert systems._family_texts is families._family_texts
    assert systems._read_families is families._read_families
    internals = ["_LINE_TABLE_N", "_line_table", "_element_texts", "_mask_line", "_HEADS",
                 "_parse_member"]
    assert all(hasattr(families, name) for name in internals)
    assert [name for name in internals if hasattr(systems, name)] == []
