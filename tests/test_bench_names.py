"""The package names and CLI inputs the benchmark reads, checked without
running it.

bench/spans.py wraps the functions in its TRACED table, and bench/pipeline.py
and bench/selfcheck.py call the package through ``hs.<name>`` chains.
bench/run.py and bench/selfcheck.py run CLI commands with options, on the
config that bench/workloads.py's cli_config writes for each workload. A
deleted or renamed name or option, or a config the CLI's readers refuse,
would otherwise show only as a failed benchmark round. The files are
parsed, apart from workloads.py, which is run from its source (it needs
only the standard library), and nothing under bench/ is changed.
"""

import ast
import importlib
import json
import runpy
from pathlib import Path

import pytest

import hamshadow
from hamshadow import cli

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


def cli_options(name: str) -> list:
    """(command, option) for every "--" option that bench/<name> passes to a
    CLI command: the option strings after the command's name in a list
    literal, and those appended to a name bound to such a list."""
    tree = ast.parse((BENCH / name).read_text())
    pairs, bound = set(), {}

    def command_of(node):
        words = [e.value for e in node.elts
                 if isinstance(e, ast.Constant) and isinstance(e.value, str)]
        for i, word in enumerate(words):
            if word in cli.main.commands:
                pairs.update((word, w) for w in words[i + 1:] if w.startswith("--"))
                return word
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.List):
            command_of(node)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            command = command_of(node.value)
            bound.update((t.id, command) for t in node.targets
                         if command and isinstance(t, ast.Name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in bound):
            pairs.update((bound[node.func.value.id], a.value) for a in node.args
                         if isinstance(a, ast.Constant) and str(a.value).startswith("--"))
    return sorted(pairs)


BENCH_OPTIONS = [(name, command, option) for name in ("run.py", "selfcheck.py")
                 for command, option in cli_options(name)]


def test_cli_options_are_found():
    assert {option for _, _, option in BENCH_OPTIONS} == \
        {"--config", "--snapshots", "--out", "--finite-time"}
    assert ("run.py", "estimate", "--finite-time") in BENCH_OPTIONS


@pytest.mark.parametrize("name,command,option", BENCH_OPTIONS)
def test_cli_option_exists(name, command, option):
    params = cli.main.commands[command].params
    assert option in {opt for p in params for opt in p.opts}


# bench/workloads.py's globals; run_path compiles the source and writes no
# bytecode under bench/
WORKLOADS = runpy.run_path(str(BENCH / "workloads.py"))


@pytest.mark.parametrize("workload", sorted(WORKLOADS["WORKLOADS"]))
def test_workload_config_passes_the_cli_readers(tmp_path, workload):
    spec = WORKLOADS["make_spec"](workload, 1)
    cfg = WORKLOADS["cli_config"](spec, str(tmp_path / "snaps.txt"),
                                  str(tmp_path / "manifest.txt"))
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps(cfg, indent=1))  # as bench/run.py writes it
    cfg = cli.load_config(path)
    h = cli.build_model(cfg)
    rho = cli.build_state(cfg, h)
    assert cli.build_time_model(cfg).describe() in (
        "ideal-rdu", "uniform-window t_min=2.0 t_max=22.0")
    assert cli.build_observables(cfg, rho, h.dim)
