"""Show that the benchmark's output checks catch wrong output.

Usage, from the root of a source checkout:

    PYTHONPATH=src python3 bench/selfcheck.py [--seed N]

Each case feeds a check one correct input, which must pass, and one
known-bad input, which must fail:

* estimates from a finite-time inverter built for the wrong window
  ([2, 4] us on data from [2, 22] us), in process and through the CLI, on a
  4-atom chain;
* outcome histograms drawn under a different Hamiltonian than the one the
  check assumes.

Exits 0 when every control passes and every bad input is caught.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks as c  # noqa: E402
import workloads  # noqa: E402
from pipeline import build_model  # noqa: E402

WRONG_WINDOW = (2.0, 4.0)
# Position seed of the 4-atom chain for the wrong-window case. On most chains
# the [2, 4] us superoperator is singular and the package refuses to build
# the inverter; on this one it inverts, so wrong estimates come out.
WRONG_WINDOW_CHAIN = 3
CLI_MAIN = "import sys; from hamshadow.cli import main; sys.exit(main())"


def caught(fn) -> tuple[bool, str]:
    try:
        fn()
    except c.CheckFailed as e:
        return True, str(e)
    return False, "check passed"


def report(label: str, expect_fail: bool, fn, results: list) -> None:
    failed, why = caught(fn)
    ok = failed == expect_fail
    results.append(ok)
    verdict = "caught" if failed else "passed"
    print(f"{'OK ' if ok else 'BAD'} {label}: check {verdict} ({why})")


def wrong_window_case(hs, seed: int, results: list) -> None:
    spec = dict(workloads.make_spec("rydberg-window-d32", seed), qubits=4, dim=16,
                model_seed=WRONG_WINDOW_CHAIN, pauli_labels=[], purity=False)
    h, rho = build_model(hs, spec)
    t1, t2 = spec["window"]
    snaps = hs.run_batch(h, rho, hs.TimeModel("uniform-window", t_min=t1, t_max=t2),
                         2000, spec["sample_seed"])
    fid = hs.Observable(rho, name="fidelity")
    truth = c.expectation(rho, rho)
    # The bound comes from the window the data were taken on.
    bound = c.Frame(h.matrix(), (t1, t2)).estimate_bound(rho)
    for label, window, bad in (("matching window [2, 22] us", (t1, t2), False),
                               ("wrong window [2, 4] us", WRONG_WINDOW, True)):
        inv = hs.build_inverter(h, mode="finite-time", t_min=window[0],
                                t_max=window[1])
        rep = hs.estimate_linear(inv, snaps, fid)
        report(f"fidelity estimate, {label}", bad, lambda rep=rep:
               c.estimate_near_truth("fidelity", rep.value, rep.std_error, truth,
                                     bound),
               results)

    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        paths = {k: os.path.join(tmp, f"{k}.txt") for k in ("snaps", "manifest")}
        cfg = workloads.cli_config(spec, paths["snaps"], paths["manifest"])
        cfg["shots"] = 2000
        for label, window, bad in (("matching", (t1, t2), False),
                                   ("wrong [2, 4] us", WRONG_WINDOW, True)):
            cfg_path = os.path.join(tmp, "config.yaml")
            with open(cfg_path, "w") as f:
                json.dump(cfg, f)
            if not os.path.exists(paths["snaps"]):
                subprocess.run([sys.executable, "-c", CLI_MAIN, "simulate",
                                "--config", cfg_path], env=env, check=True,
                               capture_output=True)
            cfg["time_model"]["t_min"], cfg["time_model"]["t_max"] = window
            with open(cfg_path, "w") as f:
                json.dump(cfg, f)
            csv = os.path.join(tmp, "est.csv")
            p = subprocess.run([sys.executable, "-c", CLI_MAIN, "estimate",
                                "--config", cfg_path, "--snapshots", paths["snaps"],
                                "--out", csv, "--finite-time"], env=env,
                               capture_output=True, text=True)

            def cli_ok(csv=csv, p=p):
                c.require(p.returncode == 0, f"estimate exited {p.returncode}")
                value, se = c.read_csv_estimates(csv)["fidelity"]
                c.estimate_near_truth("CLI fidelity", value, se, truth, bound)
            report(f"CLI estimate --finite-time, {label} window (exit "
                   f"{p.returncode})", bad, cli_ok, results)


def other_hamiltonian_case(hs, name: str, seed: int, results: list) -> None:
    spec = workloads.make_spec(name, seed)
    other = dict(spec, model_seed=spec["model_seed"] + 1)
    h, rho = build_model(hs, spec)
    h_other, _ = build_model(hs, other)
    window = tuple(spec["window"]) if spec["time_model"] == "uniform-window" else None
    tm = (hs.TimeModel("uniform-window", t_min=window[0], t_max=window[1])
          if window else hs.TimeModel("ideal-rdu"))
    expected = c.Frame(h.matrix(), window).born_average(rho)
    for label, ham, bad in (("same Hamiltonian", h, False),
                            ("other Hamiltonian", h_other, True)):
        snaps = hs.run_batch(ham, rho, tm, spec["shots"], spec["sample_seed"])
        bits = np.array([s.bitstring for s in snaps.snapshots])
        report(f"{name} histogram, {label}", bad,
               lambda bits=bits: c.histogram_matches(bits, expected), results)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    a = ap.parse_args()
    import hamshadow as hs

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    results = []
    wrong_window_case(hs, a.seed, results)
    for name in workloads.WORKLOADS:
        other_hamiltonian_case(hs, name, a.seed, results)
    print(f"{sum(results)}/{len(results)} cases as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
