"""Per-stage benchmark of hamshadow: one workload per invocation.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload quench-ideal-d64 --seed 1 --seconds 40 --trace 0

Each round runs the CLI pair (``simulate`` then ``estimate``), an interpreter
that stops once the inverter is ready, and the in-process pipeline in a
fresh interpreter, one process at a time, and checks every output. Rounds repeat while the next one is expected to end
within ``--seconds``; at least one runs. Every metric is the median over
rounds. The last line of standard output is the result as JSON: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

# BLAS threads for every process the benchmark starts. One thread keeps the
# measured process on one core and leaves the other core of a 2-core machine
# to the orchestrator and the host's own work.
BLAS_THREADS = 1
# Set-up-only interpreters per round, beside the pipeline's own set-up.
SETUP_RUNS = 2
# Every process the run starts is stopped by this many seconds after the
# run began, so that the run ends within three minutes whatever hangs.
RUN_LIMIT_S = 170
# Runs the CLI under a host probe (see hostclock.py); the first argument is
# the file the probe's slowdown is written to when the CLI exits.
CLI_MAIN = ("import sys, atexit; sys.path.insert(0, {here!r}); import hostclock; "
            "p = hostclock.HostProbe(); p.start(); "
            "atexit.register(p.dump, sys.argv.pop(1)); "
            "from hamshadow.cli import main; main()").format(here=str(HERE))

END_TO_END = [
    ("setup_s", "s"),
    ("simulate_shots_per_s", "shots/s"),
    ("estimate_s", "s"),
    ("variance_s", "s"),
    ("total_s", "s"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
    ("estimates_per_round", "count"),
]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def timed_call(cmd, env, cwd, deadline) -> tuple[float, int, str]:
    t = time.monotonic()
    try:
        p = subprocess.run(cmd, env=env, cwd=cwd, capture_output=True, text=True,
                           timeout=max(1.0, deadline - t))
        code, err = p.returncode, p.stderr
    except subprocess.TimeoutExpired:
        code, err = -1, f"stopped at the run's {RUN_LIMIT_S} s limit"
    return time.monotonic() - t, code, err


def spawn_pipeline(spec, rdir: Path, name: str, trace: bool, setup_only: bool,
                   failures: dict, env, root: Path, deadline: float) -> dict:
    """Run pipeline.py in a fresh interpreter and read its result file."""
    t_spawn = time.monotonic()
    args = {"spec": spec, "workdir": str(rdir), "cli_dir": str(rdir),
            "result": str(rdir / name), "t_spawn": t_spawn, "trace": trace,
            "setup_only": setup_only, "cli_failures": failures}
    _, code, err = timed_call(
        [sys.executable, str(HERE / "pipeline.py"), json.dumps(args)], env, root,
        deadline)
    try:
        with open(rdir / name) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        why = f"pipeline exit {code}: {err.strip()[-300:]}"
        ops = ["setup_repeat"] if setup_only else [
            op for op in workloads.operations(spec) if op != "setup_repeat"]
        return {"failures": {**failures, **{op: why for op in ops
                                            if op not in failures}},
                "estimates": 0}


def run_round(spec, root: Path, rdir: Path, trace: bool, env, deadline) -> dict:
    rdir.mkdir(parents=True)
    cfg = workloads.cli_config(spec, str(rdir / "snaps.txt"),
                               str(rdir / "manifest.txt"))
    cfg_path = rdir / "config.yaml"
    cfg_path.write_text(json.dumps(cfg, indent=1))  # JSON is valid YAML

    failures, cli = {}, {}
    est_args = ["estimate", "--config", str(cfg_path), "--snapshots",
                str(rdir / "snaps.txt"), "--out", str(rdir / "estimates.csv")]
    if spec["inverter"] == "finite-time":
        est_args.append("--finite-time")
    for op, args in (("cli.simulate", ["simulate", "--config", str(cfg_path)]),
                     ("cli.estimate", est_args)):
        if failures:
            failures[op] = "not reached"
            continue
        probe_path = rdir / f"{op}.probe.json"
        wall, code, err = timed_call(
            [sys.executable, "-c", CLI_MAIN, str(probe_path), *args], env, root,
            deadline)
        try:
            slowdown = json.loads(probe_path.read_text())["slowdown"]
        except (OSError, ValueError, KeyError):
            slowdown = None
        if code != 0 or slowdown is None:
            failures[op] = f"exit {code}: {err.strip()[-300:]}"
        else:
            cli[op] = (wall / slowdown, wall)

    setups = [spawn_pipeline(spec, rdir, f"setup{i}.json", trace, True, {}, env,
                             root, deadline) for i in range(SETUP_RUNS)]
    result = spawn_pipeline(spec, rdir, "round.json", trace, False, failures,
                            env, root, deadline)
    result["setup_repeat_s"] = [s["setup_s"] for s in setups if "setup_s" in s]
    for s in setups:
        if "setup_s" not in s:
            result["failures"]["setup_repeat"] = s["failures"].popitem()[1]
    if len(cli) == 2:
        result.update(cli_simulate_s=cli["cli.simulate"][0],
                      cli_estimate_s=cli["cli.estimate"][0],
                      cli_simulate_wall_s=cli["cli.simulate"][1],
                      cli_estimate_wall_s=cli["cli.estimate"][1],
                      cli_wall_s=cli["cli.simulate"][1] + cli["cli.estimate"][1])
    return result


def median(rounds, key):
    vals = [r[key] for r in rounds if key in r]
    return statistics.median(vals) if vals else None


def end_to_end(rounds) -> dict:
    ok = [r for r in rounds if "total_s" in r]
    cli_ok = [r for r in rounds
              if "cli.simulate" not in r["failures"]
              and "cli.estimate" not in r["failures"]]
    out = {
        "setup_s": statistics.median(
            [r["setup_s"] for r in ok] + [t for r in rounds
                                          for t in r["setup_repeat_s"]])
        if ok else None,
        "simulate_shots_per_s": statistics.median(
            r["shots"] / r["simulate_s"] for r in ok) if ok else None,
        "estimate_s": median(ok, "estimate_s"),
        "variance_s": median(ok, "variance_s"),
        "total_s": median(ok, "total_s"),
        "cli_s": statistics.median(
            r["cli_simulate_s"] + r["cli_estimate_s"] for r in cli_ok)
        if cli_ok else None,
        "peak_rss_mb": median(ok, "peak_rss_mb"),
        "estimates_per_round": median(rounds, "estimates"),
    }
    return {name: {"value": out[name], "unit": unit} for name, unit in END_TO_END
            if out[name] is not None}


def per_layer(rounds) -> dict:
    ok = [r for r in rounds if "layers" in r]
    out = {}
    for name, unit in spans.per_layer_names():
        if name == "import.hamshadow_s":
            vals = [r["import_s"] for r in ok]
        elif name == "sampler.snapshot_file_bytes":
            vals = [r["file_bytes"] for r in ok if "file_bytes" in r]
        elif name.startswith("cli."):
            # wall time, like every span of the traced run
            key = f"cli_{name[len('cli.'):-len('_s')]}_wall_s"
            vals = [r[key] for r in rounds if key in r]
        else:
            vals = [r["layers"].get(name, 0) for r in ok]
        if vals:
            out[name] = {"value": statistics.median(vals), "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hamshadow" / "__init__.py").is_file():
        print("bench: run from the root of a hamshadow checkout "
              "(src/hamshadow not found)", file=sys.stderr)
        return 2
    spec = workloads.make_spec(a.workload, a.seed)
    ops = workloads.operations(spec)
    out_dir = HERE / "out"
    run_dir = out_dir / f"{a.workload}-seed{a.seed}-trace{a.trace}-{os.getpid()}"
    env = child_env(root)
    print(f"workload={a.workload} seed={a.seed} blas_threads={BLAS_THREADS} "
          f"shots={spec['shots']} ops_per_round={len(ops)}", flush=True)

    rounds = []
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    try:
        while True:
            rounds.append(run_round(spec, root, run_dir / f"round{len(rounds)}",
                                    bool(a.trace), env, deadline))
            shutil.rmtree(run_dir / f"round{len(rounds) - 1}")
            elapsed = time.monotonic() - begin
            if elapsed * (len(rounds) + 1) / len(rounds) > a.seconds \
                    or time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(ops) * len(rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    for i, r in enumerate(rounds):
        for op, why in r["failures"].items():
            print(f"round {i} {op} FAILED: {why}", file=sys.stderr)
    metrics = per_layer(rounds) if a.trace else end_to_end(rounds)
    if not metrics:
        print("bench: no round finished; no metrics", file=sys.stderr)
        return 1
    ok = [r for r in rounds if "total_s" in r]
    print(f"rounds={len(rounds)} attempted={attempted} failed={failed} "
          f"total_s={median(ok, 'total_s')} wall_total_s={median(ok, 'total_wall_s')} "
          f"wall_cli_s={median(rounds, 'cli_wall_s')} "
          f"shots_simulated={sum(r['shots'] for r in ok)} "
          f"snapshots_loaded={sum(r['loaded'] for r in ok)} "
          f"estimates_produced={sum(r['estimates'] for r in rounds)} "
          f"elapsed_s={time.monotonic() - begin:.1f}")
    correct = not any(why.startswith("CheckFailed")
                      for r in rounds for why in r["failures"].values())
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    out_dir.mkdir(exist_ok=True)
    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    if a.trace:
        (out_dir / f"trace-{tag}.json").write_text(json.dumps(
            {"fields": ["id", "name", "start", "end", "parent", "peak_bytes"],
             "rounds": [r.get("spans", []) for r in rounds]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
