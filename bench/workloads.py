"""Workload definitions: every input of a run is a pure function of (name, seed).

Standard library only, so that the orchestrator can build the inputs and the
CLI config without importing numpy or the package under test.
"""

from __future__ import annotations

import random

WINDOW_US = (2.0, 22.0)

# Why each workload exists is recorded in README.md and BENCHMARK.json.
# "second_moments" names the linear observables whose exact second moment
# the variance stage computes.
WORKLOADS = {
    "quench-ideal-d64": {
        "qubits": 6,
        "model": "gue",
        "state": "ghz",
        "time_model": "ideal-rdu",
        "inverter": "ideal",
        "shots": 2000,
        "paulis": 2,
        "purity": True,
        "second_moments": "fidelity",
        "variance": ["second_moment_exact", "variance_approx_linear",
                     "variance_approx_nonlinear"],
    },
    "rydberg-window-d32": {
        "qubits": 5,
        "model": "rydberg",
        "state": "ghz",
        "time_model": "uniform-window",
        "inverter": "finite-time",
        "shots": 10000,
        "paulis": 1,
        "purity": True,
        "second_moments": "all",
        "variance": ["second_moment_exact", "frame_potential_k2",
                     "frame_potential_k3"],
    },
    "variance-gue-d32": {
        "qubits": 5,
        "model": "gue",
        "state": "random-pure",
        "time_model": "ideal-rdu",
        "inverter": "ideal",
        "shots": 4000,
        "paulis": 1,
        "purity": False,
        "second_moments": "all",
        "variance": ["second_moment_exact", "shadow_norm_sq"],
    },
}


def _pauli_labels(rng: random.Random, n: int) -> str:
    """A random Pauli string with at least one non-identity factor."""
    while True:
        labels = "".join(rng.choice("IXYZ") for _ in range(n))
        if labels != "I" * n:
            return labels


def make_spec(name: str, seed: int) -> dict:
    """All inputs of one run of workload ``name``, derived from ``seed`` alone."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    n = w["qubits"]
    spec = dict(w)
    spec.update(
        name=name,
        seed=seed,
        dim=2**n,
        model_seed=rng.randrange(2**31),
        state_seed=rng.randrange(2**31),
        sample_seed=rng.randrange(2**31),
        pauli_labels=[_pauli_labels(rng, n) for _ in range(w["paulis"])],
        window=list(WINDOW_US),
    )
    return spec


def linear_names(spec: dict) -> list[str]:
    """Names of the one-copy observables a workload estimates."""
    return ["fidelity", *spec["pauli_labels"]]


def second_moment_names(spec: dict) -> list[str]:
    return ["fidelity"] if spec["second_moments"] == "fidelity" else linear_names(spec)


def operations(spec: dict) -> list[str]:
    """Names of the operations one round attempts, in order.

    The CLI pair runs in the orchestrator, ``setup_repeat`` in the processes
    that stop once the inverter is ready (one failure counts once), and
    every other operation in the pipeline process. A failure is an
    exception, a non-zero exit or a failed check on that operation's output.
    """
    ops = ["cli.simulate", "cli.estimate", "setup_repeat", "import", "models.build",
           "diagnose_detection", "build_inverter", "run_batch",
           "save_snapshots", "load_snapshots"]
    ops += [f"estimate_linear.{name}" for name in linear_names(spec)]
    if spec["purity"]:
        ops.append("estimate_purity")
    ops += [f"variance.{v}" for v in spec["variance"]]
    return ops


def cli_config(spec: dict, snapshots: str, manifest: str) -> dict:
    """The CLI config for the same inputs as the in-process pipeline."""
    if spec["model"] == "rydberg":
        model = {"kind": "rydberg", "num_atoms": spec["qubits"],
                 "seed": spec["model_seed"]}
    else:
        model = {"kind": "gue", "dim": spec["dim"], "seed": spec["model_seed"]}
    if spec["state"] == "ghz":
        state = {"kind": "ghz", "n": spec["qubits"]}
    else:
        state = {"kind": "random-pure", "n": spec["qubits"],
                 "seed": spec["state_seed"]}
    if spec["time_model"] == "uniform-window":
        tm = {"kind": "uniform-window", "t_min": spec["window"][0],
              "t_max": spec["window"][1]}
    else:
        tm = {"kind": "ideal-rdu"}
    observables = [{"kind": "fidelity", "name": "fidelity"}]
    observables += [{"kind": "pauli", "labels": p, "name": p}
                    for p in spec["pauli_labels"]]
    if spec["purity"]:
        observables.append({"kind": "purity", "name": "purity"})
    return {
        "model": model,
        "state": state,
        "time_model": tm,
        "shots": spec["shots"],
        "seed": spec["sample_seed"],
        "estimators": {"method": "mean", "observables": observables},
        "output": {"snapshots": snapshots, "manifest": manifest},
    }
