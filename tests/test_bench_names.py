"""The package names the benchmark reads, resolved without running it.

bench/spans.py wraps the functions in its TRACED table, and bench/pipeline.py
and bench/selfcheck.py call the package through ``hs.<name>`` chains. A
deleted or renamed name would otherwise show only in a benchmark round.
The files are parsed, not imported, and nothing under bench/ is changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import hamshadow

BENCH = Path(__file__).parent.parent / "bench"


def traced_functions() -> list:
    """The (module, function) keys of bench/spans.py's TRACED table."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("bench/spans.py defines no TRACED table")


def hs_chains(name: str) -> list:
    """Every maximal attribute chain ``hs.a.b`` in bench/<name>, as "a.b"."""
    chains = set()
    for node in ast.walk(ast.parse((BENCH / name).read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "hs" and parts:
            chains.add(".".join(reversed(parts)))
    # a chain's prefixes are walked too; they resolve if the chain does
    return sorted(c for c in chains
                  if not any(o.startswith(c + ".") for o in chains))


def test_tables_are_found():
    assert ("sampler", "run_batch") in traced_functions()
    assert "models.random_positions" in hs_chains("pipeline.py")
    assert "build_inverter" in hs_chains("selfcheck.py")


@pytest.mark.parametrize("module,function", traced_functions())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"hamshadow.{module}"),
                            function))


@pytest.mark.parametrize("name,chain", [(name, chain)
                                        for name in ("pipeline.py", "selfcheck.py")
                                        for chain in hs_chains(name)])
def test_hs_chain_resolves(name, chain):
    obj = hamshadow
    for attr in chain.split("."):
        obj = getattr(obj, attr)
