"""Byte-for-byte comparison of sampler output with committed golden files.

The files under ``tests/data/golden/`` pin the exact snapshot bytes,
manifest, ``estimate`` CSV and ``variance`` CSV that fixed seeds produce, so
a change to the sampling code that alters a single draw or outcome shows
here. Regenerate them (only when a format change is intended) with

    PYTHONPATH=src python tests/test_golden.py [name ...]

which rewrites only the named files, or all of them when none is named.
The snapshot files under ``tests/data/v1/`` are the same runs in format v1,
which nothing here rewrites: they pin that v1 files still load.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from hamshadow.cli import main
from hamshadow.models import gue_hamiltonian
from hamshadow.sampler import TimeModel, load_snapshots, run_batch, save_snapshots

GOLDEN = Path(__file__).parent / "data" / "golden"
V1 = Path(__file__).parent / "data" / "v1"
SHOTS = 300


def mixed_state(d, seed):
    """Full-rank density matrix with off-diagonal coherences."""
    g = np.random.default_rng(seed)
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


TIME_MODELS = {
    "ideal": TimeModel("ideal-rdu"),
    "window": TimeModel("uniform-window", t_min=0.5, t_max=3.0),
    "design2": TimeModel("design", k=2),
}


def write_batches(out_dir: Path) -> list:
    """Write every sampler golden file into out_dir; return their names."""
    names = []
    h = gue_hamiltonian(8, 41)
    rho = mixed_state(8, 42)
    for key, tm in TIME_MODELS.items():
        name = f"gue8_mixed_{key}.txt"
        save_snapshots(out_dir / name, run_batch(h, rho, tm, SHOTS, seed=43))
        names.append(name)
    return names


CLI_CONFIG = {
    "model": {"kind": "gue", "dim": 8, "seed": 41},
    "state": {"kind": "random-pure", "n": 3, "seed": 2},
    "time_model": {"kind": "ideal-rdu"},
    "shots": SHOTS,
    "seed": 47,
    "estimators": {
        "method": "median-of-means",
        "batches": 3,
        "observables": [{"kind": "pauli", "labels": "XZY", "name": "XZY"},
                        {"kind": "fidelity", "name": "fidelity"},
                        {"kind": "purity", "name": "purity"}],
    },
    "output": {"snapshots": "cli_snaps.txt", "manifest": "cli_manifest.txt"},
}
CLI_FILES = ["cli_snaps.txt", "cli_manifest.txt", "cli_estimate.csv"]


def run_cli(out_dir: Path, invocations: list, names: list) -> list:
    """Run CLI invocations on CLI_CONFIG with relative output paths; copy
    the named outputs to out_dir."""
    runner = CliRunner()
    with runner.isolated_filesystem() as cwd:
        with open("cfg.yaml", "w") as f:
            yaml.safe_dump(CLI_CONFIG, f)
        for args in invocations:
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        for name in names:
            (out_dir / name).write_bytes((Path(cwd) / name).read_bytes())
    return names


def write_cli(out_dir: Path) -> list:
    """Run simulate then estimate."""
    return run_cli(out_dir, [["simulate", "--config", "cfg.yaml"],
                             ["estimate", "--config", "cfg.yaml",
                              "--snapshots", "cli_snaps.txt",
                              "--out", "cli_estimate.csv"]], CLI_FILES)


def write_cli_variance(out_dir: Path) -> list:
    """Run variance."""
    return run_cli(out_dir, [["variance", "--config", "cfg.yaml",
                              "--out", "cli_variance.csv"]], ["cli_variance.csv"])


WRITERS = [write_batches, write_cli, write_cli_variance]


@pytest.mark.parametrize("writer", WRITERS)
def test_matches_golden_bytes(tmp_path, writer):
    names = writer(tmp_path)
    for name in names:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_golden_files_have_writers(tmp_path):
    # a golden file whose writer is gone would otherwise sit unchecked
    written = {name for writer in WRITERS for name in writer(tmp_path)}
    assert {p.name for p in GOLDEN.iterdir()} == written


@pytest.mark.parametrize("name", sorted(p.name for p in V1.iterdir()))
def test_v1_file_loads_as_its_golden(name):
    assert (V1 / name).read_text().startswith("# hamshadow snapshots v1\n")
    v1, golden = load_snapshots(V1 / name), load_snapshots(GOLDEN / name)
    assert (v1.hamiltonian_fingerprint, v1.seed, v1.time_model) == \
        (golden.hamiltonian_fingerprint, golden.seed, golden.time_model)
    assert v1.bits.tolist() == golden.bits.tolist()
    for col in ("times", "phases"):
        a, b = getattr(v1, col), getattr(golden, col)
        assert (a is None) == (b is None)
        assert a is None or a.view(np.uint64).tolist() == b.view(np.uint64).tolist()


def test_estimate_of_v1_file_matches_golden(tmp_path):
    run_cli(tmp_path, [["estimate", "--config", "cfg.yaml",
                        "--snapshots", str(V1 / "cli_snaps.txt"),
                        "--out", "cli_estimate.csv"]], ["cli_estimate.csv"])
    assert (tmp_path / "cli_estimate.csv").read_bytes() == \
        (GOLDEN / "cli_estimate.csv").read_bytes()


def regenerate(names: list) -> None:
    """Rewrite the named golden files, or all of them when names is empty.

    Each writer runs in a scratch directory; only the files asked for are
    copied over, so the others keep their committed bytes.
    """
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        written = [name for writer in WRITERS for name in writer(Path(tmp))]
        unknown = set(names) - set(written)
        if unknown:
            sys.exit(f"no writer for {sorted(unknown)}; known: {written}")
        for name in names or written:
            (GOLDEN / name).write_bytes((Path(tmp) / name).read_bytes())
            print(GOLDEN / name)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
