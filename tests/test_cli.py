import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import hamshadow
from hamshadow import cli, models, qmatrix, sampler, shadowmap
from hamshadow.cli import (
    ESTIMATE_CSV_HEADER,
    VARIANCE_CSV_HEADER,
    _csv_row,
    build_model,
    build_state,
    config_digest,
    main,
)
from hamshadow.estimators import (
    Observable,
    estimate_linear,
    estimate_purity,
)
from hamshadow.models import pauli_tensor
from hamshadow.sampler import TimeModel, load_snapshots, run_batch
from hamshadow.shadowmap import (
    apply_n_inverse,
    build_inverter,
    hamiltonian_fingerprint,
)
from hamshadow.variance import (
    purity_variance_report,
    variance_report,
)

from moments import DiagonalDesign
from snapfiles import HEADER_EDITS, b64, edit_file
from states import exact_average_state
from superoperators import apply_packed_dense, dense_window_superoperator

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("module,name", [
    ("shadowmap", "apply_n"), ("shadowmap", "shadow_map_forward"),
    ("estimators", "_inverted_sigmas"), ("estimators", "snapshot_states"),
    ("estimators", "build_estimator"), ("estimators", "exact_average_state"),
    ("estimators", "write_reports_csv"),
    ("rdu", "phi_k_diagonal"), ("rdu", "_index_tuples"),
    ("rdu", "phi2_with_energies"), ("rdu", "DiagonalDesign"),
    ("rdu", "diagonal_design"), ("rdu", "MAX_DESIGN_SIZE"),
    ("rdu", "_compositions"), ("rdu", "_multinomial"),
    ("rdu", "rdu_sampler"), ("rdu", "window_sampler"),
    ("qmatrix", "tensor_product"),
    ("models", "_embed"), ("shadowmap", "_pack_superoperator"),
    ("estimators", "haar_unitary"), ("estimators", "global_shadow_values"),
    ("estimators", "baseline_global_shadow"),
])
def test_test_oracles_are_not_shipped(module, name):
    # the forward map, rho-hat stacks and moment oracles live under tests/
    assert not hasattr(getattr(hamshadow, module), name)
    assert not hasattr(hamshadow, name)


def test_package_import_loads_no_scipy():
    # scipy (even scipy.linalg.blas) costs several times the whole package
    # import, paid by every CLI call; it is a test dependency only
    src = os.path.dirname(os.path.dirname(hamshadow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, hamshadow, hamshadow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_relative_imports_at_module_level():
    # a function-level import hid an rdu -> sampler -> rdu cycle
    for path in Path(hamshadow.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        top = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node in top, f"{path.name}:{node.lineno}"
                assert (path.name, node.module) != ("rdu.py", "sampler")


def write_cfg(path, cfg):
    with open(path, "w") as f:
        yaml.safe_dump(cfg, f)
    return str(path)


def base_cfg(tmp_path, **overrides):
    cfg = {
        "model": {"kind": "gue", "dim": 4, "seed": 1},
        "state": {"kind": "random-pure", "n": 2, "seed": 2},
        "time_model": {"kind": "ideal-rdu"},
        "shots": 200,
        "seed": 5,
        "estimators": {
            "method": "mean",
            "observables": [{"kind": "pauli", "labels": "XZ", "name": "XZ"}],
        },
        "output": {"snapshots": str(tmp_path / "snaps.txt"),
                   "manifest": str(tmp_path / "manifest.txt")},
    }
    cfg.update(overrides)
    return cfg


class TestSimulate:
    def test_writes_snapshots_and_manifest(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "snaps.txt").read_text()
        assert text.count("b=") == 200
        assert "shots=200" in (tmp_path / "manifest.txt").read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        assert runner.invoke(main, ["simulate", "--config", p]).exit_code == 0
        first = (tmp_path / "snaps.txt").read_bytes()
        assert runner.invoke(main, ["simulate", "--config", p]).exit_code == 0
        assert (tmp_path / "snaps.txt").read_bytes() == first

    def test_seed_override_changes_output(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        runner.invoke(main, ["simulate", "--config", p])
        first = (tmp_path / "snaps.txt").read_text()
        runner.invoke(main, ["simulate", "--config", p, "--seed", "99"])
        assert (tmp_path / "snaps.txt").read_text() != first

    def test_config_digest_ignores_output_directory(self, tmp_path):
        digests = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            cfg = base_cfg(tmp_path / sub)
            p = write_cfg(tmp_path / sub / "cfg.yaml", cfg)
            res = CliRunner().invoke(main, ["simulate", "--config", p])
            assert res.exit_code == 0, res.output
            lines = (tmp_path / sub / "manifest.txt").read_text().splitlines()
            digests += [ln for ln in lines if ln.startswith("config_digest=")]
        assert len(digests) == 2 and digests[0] == digests[1]

    def test_incomplete_model_aborts_with_code_3(self, tmp_path):
        cfg = base_cfg(tmp_path, model={"kind": "single-qubit-theta",
                                        "theta": 0.0},
                       state={"kind": "random-pure", "n": 1, "seed": 1})
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 3
        res2 = CliRunner().invoke(main, ["simulate", "--config", p,
                                         "--allow-incomplete"])
        assert res2.exit_code == 0

    def test_unknown_key_rejected_with_code_2(self, tmp_path):
        cfg = base_cfg(tmp_path)
        cfg["model"]["bogus"] = 1
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2
        assert "bogus" in res.output + str(res.stderr_bytes or "")

    @pytest.mark.parametrize("shots", [0, -3, "abc", 2.5])
    def test_bad_shot_count_code_2(self, tmp_path, shots):
        # a zero or non-integer count ended in a ValueError traceback, exit 1
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path, shots=shots))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2
        assert res.output.startswith("config error: shots must be a positive")
        assert not (tmp_path / "snaps.txt").exists()

    def test_zero_shots_override_code_2(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path))
        res = CliRunner().invoke(main, ["simulate", "--config", p, "--shots", "0"])
        assert res.exit_code == 2
        assert "config error: shots must be a positive integer, got 0" in res.output

    @pytest.mark.parametrize("t_max", ["1e400", ".inf", ".nan"])
    def test_non_finite_window_code_2(self, tmp_path, t_max):
        # t_max 1e400 (inf) ended in an OverflowError traceback, exit 1
        cfg = base_cfg(tmp_path, time_model={"kind": "uniform-window",
                                             "t_min": 2.0, "t_max": 0.0})
        text = yaml.safe_dump(cfg).replace("t_max: 0.0", f"t_max: {t_max}")
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        res = CliRunner().invoke(main, ["simulate", "--config", str(p)])
        assert res.exit_code == 2
        assert res.output.startswith("config error: bad time_model section")
        assert not (tmp_path / "snaps.txt").exists()

    @pytest.mark.parametrize("seed", ["abc", -1, 2.5])
    def test_bad_seed_code_2(self, tmp_path, seed):
        # int() on the config value ended in a ValueError traceback, exit 1
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path, seed=seed))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2
        assert res.output.startswith(
            f"config error: seed must be a non-negative integer, got {seed!r}")
        assert not (tmp_path / "snaps.txt").exists()


class TestConfigSections:
    @pytest.mark.parametrize("state,expected", [
        ({"kind": "ghz", "n": 2}, lambda h: models.ghz_state(2)),
        ({"kind": "cluster", "n": 2}, lambda h: models.cluster_state(2)),
        ({"kind": "ladder-product", "n_zero": 1, "n_one": 1},
         lambda h: models.ladder_product_state(1, 1)),
        ({"kind": "random-pure", "n": 2, "seed": 3},
         lambda h: models.random_pure_state(4, 3)),
        ({"kind": "thermal", "beta": 1.5}, lambda h: models.thermal_state(h, 1.5)),
    ], ids=["ghz", "cluster", "ladder-product", "random-pure", "thermal"])
    def test_build_state_is_the_models_function(self, tmp_path, state, expected):
        cfg = base_cfg(tmp_path, state=state)
        h = build_model(cfg)
        np.testing.assert_array_equal(build_state(cfg, h), expected(h))

    @pytest.mark.parametrize("section,value", [
        ("state", {"kind": "ghz", "n": None}),
        ("state", {"kind": "nope"}),
        ("time_model", {"kind": "uniform-window", "t_min": None, "t_max": 3}),
    ])
    def test_malformed_value_code_2(self, tmp_path, section, value):
        # a null value ended in a TypeError traceback, exit 1
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path, **{section: value}))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2, res.output
        assert res.output.startswith(f"config error: bad {section} section: ")

    @pytest.mark.parametrize("section, value, message", [
        ("model", {"kind": "gue", "dim": 8.9, "seed": 1}, "dim must be a positive"),
        ("model", {"kind": "exp-family", "dim": 4.5, "theta": 0.3},
         "dim must be a positive"),
        ("model", {"kind": "rydberg", "num_atoms": 3.7},
         "num_atoms must be a positive"),
        ("model", {"kind": "gue", "dim": 4, "seed": 1.5},
         "seed must be a non-negative"),
        ("model", {"kind": "hadamard", "n": 2.5}, "n must be a non-negative"),
        ("state", {"kind": "ghz", "n": 3.7}, "n must be a non-negative"),
        ("state", {"kind": "ladder-product", "n_zero": 1.5, "n_one": 1},
         "n_zero must be a non-negative"),
        ("state", {"kind": "ladder-product", "n_zero": 1, "n_one": 1.5},
         "n_one must be a non-negative"),
        ("state", {"kind": "random-pure", "n": 2, "seed": 2.5},
         "seed must be a non-negative"),
        ("time_model", {"kind": "design", "k": 2.9}, "k must be a positive"),
    ], ids=["gue-dim", "exp-family-dim", "num_atoms", "model-seed", "hadamard-n",
            "state-n", "n_zero", "n_one", "state-seed", "k"])
    def test_non_integer_count_code_2(self, tmp_path, section, value, message):
        # int() truncated them: k: 2.9 drew a k = 2 design, and exit 0
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path, **{section: value}))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2, res.output
        assert res.output.startswith(f"config error: bad {section} section: "
                                     f"{message} integer, got ")
        assert not (tmp_path / "snaps.txt").exists()

    def test_output_reports_key_code_2(self, tmp_path):
        # accepted before, though nothing wrote a reports file
        cfg = base_cfg(tmp_path)
        cfg["output"]["reports"] = str(tmp_path / "reports.csv")
        res = CliRunner().invoke(main, ["simulate", "--config",
                                        write_cfg(tmp_path / "cfg.yaml", cfg)])
        assert res.exit_code == 2
        assert res.output.startswith(
            "config error: unknown keys in config.output: ['reports']")


class TestUnwritableOutput:
    """An output path in a missing directory exits 2 and names the path."""

    @staticmethod
    def assert_refused(res, path):
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"output error: cannot write {path}: ")

    @staticmethod
    def refuse_work(monkeypatch, name, target=None):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran before the output was checked")
        if target is None:
            monkeypatch.setattr(cli, name, refuse)
        else:
            monkeypatch.setitem(target, name, refuse)

    @pytest.mark.parametrize("key", ["snapshots", "manifest"])
    def test_simulate(self, tmp_path, monkeypatch, key):
        # the snapshots were written before the manifest path was tried
        self.refuse_work(monkeypatch, "run_batch")
        cfg = base_cfg(tmp_path)
        cfg["output"][key] = str(tmp_path / "missing" / "out.txt")
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        self.assert_refused(res, cfg["output"][key])
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_simulate_late_write_error_leaves_neither_file(self, tmp_path,
                                                           monkeypatch):
        def full(path, *args):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(cli, "write_manifest", full)
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        self.assert_refused(res, tmp_path / "manifest.txt")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_estimate(self, tmp_path):
        p = simulated(tmp_path, base_cfg(tmp_path))
        out = tmp_path / "missing" / "est.csv"
        res = estimate_from(p, tmp_path / "snaps.txt", "--out", str(out))
        self.assert_refused(res, out)

    def test_variance(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path))
        out = tmp_path / "missing" / "var.csv"
        res = CliRunner().invoke(main, ["variance", "--config", p, "--out", str(out)])
        self.assert_refused(res, out)

    def test_reproduce(self, tmp_path, monkeypatch):
        # the series was computed before --out was opened
        self.refuse_work(monkeypatch, "fig8", cli.FIGURES)
        out = tmp_path / "missing" / "fig8.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig8",
                                        "--out", str(out)])
        self.assert_refused(res, out)


class TestStateDimension:
    """A state of another dimension than the model's is a config error."""

    # on a gue dim: 8 model each ended in a matmul or run_batch traceback
    # (exit 1), or in estimate's "snapshot error: matmul: ..."
    STATES = [({"kind": "ghz", "n": 4}, "ghz", 16),
              ({"kind": "ladder-product", "n_zero": 2, "n_one": 2},
               "ladder-product", 16),
              ({"kind": "cluster", "n": 2}, "cluster", 4)]

    @staticmethod
    def cfg(tmp_path, state):
        return base_cfg(tmp_path, model={"kind": "gue", "dim": 8, "seed": 1},
                        state=state,
                        estimators={"observables": [{"kind": "fidelity"}]})

    @pytest.mark.parametrize("state,kind,dim", STATES,
                             ids=["ghz", "ladder-product", "cluster"])
    @pytest.mark.parametrize("command", ["simulate", "estimate", "variance"])
    def test_mismatch_code_2(self, tmp_path, monkeypatch, command, state,
                             kind, dim):
        simulated(tmp_path, self.cfg(tmp_path, {"kind": "ghz", "n": 3}))
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        TestUnwritableOutput.refuse_work(monkeypatch, "run_batch")
        cfg_path = write_cfg(tmp_path / "bad.yaml", self.cfg(tmp_path, state))
        args = [command, "--config", cfg_path]
        if command == "estimate":
            args += ["--snapshots", str(tmp_path / "snaps.txt")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == (f"config error: bad state section: the {kind} state "
                              f"has dimension {dim}, but the model has dimension 8\n")
        # the refused simulate opened neither output: both keep their bytes
        after = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        assert after == dict(before, **{"bad.yaml": after["bad.yaml"]})

    def test_refused_simulate_leaves_no_new_file(self, tmp_path, monkeypatch):
        TestUnwritableOutput.refuse_work(monkeypatch, "run_batch")
        p = write_cfg(tmp_path / "cfg.yaml",
                      self.cfg(tmp_path, {"kind": "ghz", "n": 4}))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert res.exit_code == 2
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.yaml"]


class TestShotLimit:
    # 2**32 shots passed the CLI and failed in the sampler, after both
    # outputs were created: exit 1 with a traceback, and two empty files
    @pytest.mark.parametrize("where", ["config", "option"])
    def test_refused_before_sampling(self, tmp_path, monkeypatch, where):
        TestUnwritableOutput.refuse_work(monkeypatch, "run_batch")
        cfg = base_cfg(tmp_path, shots=2**32 if where == "config" else 10)
        args = ["simulate", "--config", write_cfg(tmp_path / "cfg.yaml", cfg)]
        if where == "option":
            args += ["--shots", str(2**32)]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output == (f"config error: shots must be below {2**32}, "
                              f"got {2**32}\n")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_limit_is_the_samplers(self):
        assert cli.SHOT_LIMIT is sampler.SHOT_LIMIT == 2**32


class TestFailedRunLeavesNoOutput:
    """A failure after the outputs were created removes every one of them."""

    def test_simulate(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("sampler failed")
        monkeypatch.setattr(cli, "run_batch", fail)
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path))
        res = CliRunner().invoke(main, ["simulate", "--config", p])
        assert isinstance(res.exception, RuntimeError)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.yaml"]

    def test_reproduce(self, tmp_path, monkeypatch):
        def fail(seed):
            raise RuntimeError("figure failed")
        monkeypatch.setitem(cli.FIGURES, "fig8", fail)
        out = tmp_path / "fig8.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig8",
                                        "--out", str(out)])
        assert isinstance(res.exception, RuntimeError)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["estimate", "variance"])
def test_observables_string_names_the_list(tmp_path, command):
    # "fidelity" was read as the list ["f", "i", ...]: "observables[0] must
    # be a mapping"
    simulated(tmp_path, base_cfg(tmp_path))
    cfg = base_cfg(tmp_path, estimators={"observables": "fidelity"})
    args = [command, "--config", write_cfg(tmp_path / "bad.yaml", cfg)]
    if command == "estimate":
        args += ["--snapshots", str(tmp_path / "snaps.txt")]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert res.output == ("config error: config.estimators.observables must be "
                          "a list of mappings, got 'fidelity'\n")


class TestEstimate:
    def test_pipeline_and_csv(self, tmp_path):
        cfg = base_cfg(tmp_path, shots=2000)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        assert runner.invoke(main, ["simulate", "--config", p]).exit_code == 0
        out = tmp_path / "est.csv"
        res = runner.invoke(main, ["estimate", "--config", p,
                                   "--snapshots", str(tmp_path / "snaps.txt"),
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# hamshadow estimates v3 seed=5 config_digest=")
        assert lines[1] == ESTIMATE_CSV_HEADER
        fields = lines[2].split(",")
        assert fields[0] == "XZ"
        assert abs(float(fields[1])) <= 1.5  # Pauli expectation, noisy

    def test_fingerprint_mismatch_code_4(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        runner.invoke(main, ["simulate", "--config", p])
        other = dict(cfg, model={"kind": "gue", "dim": 4, "seed": 2})
        p2 = write_cfg(tmp_path / "cfg2.yaml", other)
        res = runner.invoke(main, ["estimate", "--config", p2,
                                   "--snapshots", str(tmp_path / "snaps.txt")])
        assert res.exit_code == 4

    def test_wrong_postprocessing_is_no_option(self, tmp_path):
        # the biased baseline lives in reproduce --figure fig6 only
        p = simulated(tmp_path, base_cfg(tmp_path))
        res = estimate_from(p, tmp_path / "snaps.txt", "--wrong-postprocessing")
        assert res.exit_code == 2
        assert "No such option" in res.output
        assert "--wrong-postprocessing" in res.output

    def test_purity_observable(self, tmp_path):
        cfg = base_cfg(tmp_path, shots=500)
        cfg["estimators"]["observables"] = [{"kind": "purity", "name": "pur"}]
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        runner.invoke(main, ["simulate", "--config", p])
        res = runner.invoke(main, ["estimate", "--config", p,
                                   "--snapshots", str(tmp_path / "snaps.txt")])
        assert res.exit_code == 0
        assert "u-statistic" in res.output


def rydberg_window_cfg(tmp_path, t_max):
    return base_cfg(
        tmp_path, shots=2000,
        model={"kind": "rydberg", "num_atoms": 4, "seed": 3},
        state={"kind": "ghz", "n": 4},
        time_model={"kind": "uniform-window", "t_min": 2.0, "t_max": t_max},
        estimators={"observables": [{"kind": "fidelity", "name": "ghz"}]})


def simulated(tmp_path, cfg):
    """Config path after simulating cfg's snapshots to tmp_path/snaps.txt."""
    p = write_cfg(tmp_path / "cfg.yaml", cfg)
    res = CliRunner().invoke(main, ["simulate", "--config", p])
    assert res.exit_code == 0, res.output
    return p


def estimate_from(cfg_path, snap_path, *flags):
    res = CliRunner().invoke(main, ["estimate", "--config", cfg_path,
                                    "--snapshots", str(snap_path), *flags])
    # no traceback: either a clean return or a deliberate exit code
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        res.exception
    return res


class TestEstimateSettings:
    @pytest.mark.parametrize("batches", ["x", 0, 1.5])
    def test_bad_batches_code_2(self, tmp_path, batches):
        simulated(tmp_path, base_cfg(tmp_path))
        cfg = base_cfg(tmp_path)
        cfg["estimators"].update(method="median-of-means", batches=batches)
        res = estimate_from(write_cfg(tmp_path / "mom.yaml", cfg),
                            tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert res.output.startswith(
            f"config error: batches must be a positive integer, got {batches!r}")

    @pytest.mark.parametrize("kinds,code", [(["fidelity"], 2),
                                            (["fidelity", "purity"], 2),
                                            (["purity"], 0)])
    def test_more_batches_than_snapshots_is_a_config_error(self, tmp_path,
                                                           kinds, code):
        # the file is fine; the config asks for more batches than it has
        # rows, which only the median-of-means of a linear estimate reads
        cfg = base_cfg(tmp_path, shots=20)
        simulated(tmp_path, cfg)
        cfg["estimators"].update(
            method="median-of-means", batches=50,
            observables=[{"kind": kind} for kind in kinds])
        snap_path = tmp_path / "snaps.txt"
        res = estimate_from(write_cfg(tmp_path / "mom.yaml", cfg), snap_path)
        assert res.exit_code == code, res.output
        if code:
            assert res.output == (
                "config error: estimators.batches=50 exceeds the 20 "
                f"snapshots in {snap_path}\n")

    def test_batches_used(self, tmp_path):
        simulated(tmp_path, base_cfg(tmp_path))
        cfg = base_cfg(tmp_path)
        cfg["estimators"].update(method="median-of-means", batches=4)
        res = estimate_from(write_cfg(tmp_path / "mom.yaml", cfg),
                            tmp_path / "snaps.txt")
        assert res.exit_code == 0, res.output
        assert "median-of-means(4)" in res.output


def rewrite_rows(snap_path, keep_rows, extra_rows=()):
    lines = Path(snap_path).read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line for line in lines if not line.startswith("#")]
    Path(snap_path).write_text(
        "\n".join(header + rows[:keep_rows] + list(extra_rows)) + "\n")


class TestEstimateInputChecks:
    def test_finite_time_window_mismatch_code_2(self, tmp_path):
        # data on [2, 22] us inverted with a [2, 4] us map gave a GHZ
        # fidelity of order 1e7 and exit 0; with or without the flag, the
        # header's window must be the config's
        simulated(tmp_path, rydberg_window_cfg(tmp_path, 22.0))
        narrow = write_cfg(tmp_path / "narrow.yaml",
                           rydberg_window_cfg(tmp_path, 4.0))
        for flags in [("--finite-time",), ()]:
            res = estimate_from(narrow, tmp_path / "snaps.txt", *flags)
            assert res.exit_code == 2
            assert "t_max=22.0" in res.output and "t_max=4.0" in res.output

    def test_finite_time_matching_window_succeeds(self, tmp_path):
        p = simulated(tmp_path, rydberg_window_cfg(tmp_path, 22.0))
        res = estimate_from(p, tmp_path / "snaps.txt", "--finite-time")
        assert res.exit_code == 0, res.output
        fidelity, err = (float(x) for x in
                         res.output.splitlines()[2].split(",")[1:3])
        assert abs(fidelity - 1.0) < 6 * err

    def test_singular_window_code_3(self, tmp_path):
        # the [2, 4] us map of the seed-7 chain has cond ~ 1e16; inverting
        # it ended in a LinAlgError traceback
        cfg = rydberg_window_cfg(tmp_path, 4.0)
        p = simulated(tmp_path, dict(cfg, shots=200,
                                     model=dict(cfg["model"], seed=7)))
        res = estimate_from(p, tmp_path / "snaps.txt", "--finite-time")
        assert res.exit_code == 3
        assert "numerically singular (cond=" in res.output
        assert len(res.output.strip().splitlines()) == 1

    def test_window_data_without_the_flag_is_finite_time(self, tmp_path):
        # the header's window picks the map: the ideal-phase inverse wrote a
        # GHZ fidelity 13 SE above the truth on the 5-atom chain at 200 000
        # shots, and then exited 2 unless --finite-time was given
        cfg = rydberg_window_cfg(tmp_path, 22.0)
        cfg["estimators"]["observables"].append({"kind": "purity"})
        p = simulated(tmp_path, cfg)
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        res = estimate_from(p, tmp_path / "snaps.txt", "--out", str(plain))
        assert res.exit_code == 0, res.output
        res = estimate_from(p, tmp_path / "snaps.txt", "--out", str(flagged),
                            "--finite-time")
        assert res.exit_code == 0, res.output
        assert plain.read_bytes() == flagged.read_bytes()
        # the purity row, too, takes the window's map
        snaps = load_snapshots(tmp_path / "snaps.txt")
        inv = build_inverter(build_model(cfg), mode="finite-time",
                             t_min=2.0, t_max=22.0)
        pur = estimate_purity(inv, snaps)
        assert plain.read_text().splitlines()[3] == (
            f"purity,{pur.value!r},{pur.std_error!r},{pur.num_snapshots},"
            f"u-statistic,{snaps.seed},{snaps.hamiltonian_fingerprint}")

    def test_finite_time_memory_guard_code_2(self, tmp_path, monkeypatch):
        # the guard is lowered so that the 4-atom chain (d = 16, d^4 = 65536)
        # stands for the 8-atom one (d = 256, 32 GiB)
        p = simulated(tmp_path, dict(rydberg_window_cfg(tmp_path, 22.0), shots=50))
        monkeypatch.setattr(shadowmap, "MAX_WINDOW_ENTRIES", 16**4 - 1)
        res = estimate_from(p, tmp_path / "snaps.txt", "--finite-time")
        assert res.exit_code == 2
        assert res.output.startswith("inverter error: the finite-time "
                                     "superoperator of d = 16 holds d^4 = 65536")
        assert "MAX_WINDOW_ENTRIES = 65535" in res.output
        assert len(res.output.strip().splitlines()) == 1

    def test_finite_time_on_phase_data_code_2(self, tmp_path):
        p = simulated(tmp_path, base_cfg(tmp_path))
        res = estimate_from(p, tmp_path / "snaps.txt", "--finite-time")
        assert res.exit_code == 2
        assert "uniform-window" in res.output

    def test_incomplete_model_code_3(self, tmp_path):
        cfg = base_cfg(tmp_path, model={"kind": "single-qubit-theta",
                                        "theta": 0.0},
                       state={"kind": "random-pure", "n": 1, "seed": 1},
                       estimators={"observables": [{"kind": "pauli",
                                                    "labels": "X"}]})
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["simulate", "--config", p,
                                        "--allow-incomplete"])
        assert res.exit_code == 0, res.output
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 3
        assert res.output.startswith("Hamiltonian is not tomography-complete:\n")

    def test_truncated_file_code_2(self, tmp_path):
        p = simulated(tmp_path, base_cfg(tmp_path, shots=2000))
        rewrite_rows(tmp_path / "snaps.txt", 15)
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert "shots=2000" in res.output and "15 rows" in res.output
        assert len(res.output.strip().splitlines()) == 1

    def test_out_of_range_bitstring_code_2(self, tmp_path):
        cfg = rydberg_window_cfg(tmp_path, 22.0)
        p = simulated(tmp_path, dict(cfg, shots=20))
        rewrite_rows(tmp_path / "snaps.txt", 19, ["t_us=3.0 b=99"])
        res = estimate_from(p, tmp_path / "snaps.txt", "--finite-time")
        assert res.exit_code == 2
        assert "exceeds Hilbert-space dimension" in res.output
        assert len(res.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("time", ["1000.0", "nan"])
    def test_time_outside_the_window_code_2(self, tmp_path, time):
        # the row made estimate write fidelity,nan,nan and exit 0
        p = simulated(tmp_path, dict(rydberg_window_cfg(tmp_path, 22.0), shots=20))
        rewrite_rows(tmp_path / "snaps.txt", 19, [f"t_us={time} b=0"])
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert res.output.startswith("snapshot error: ")
        assert (f"line 25: t_us={time} lies outside the window [2.0, 22.0] us"
                in res.output)
        assert len(res.output.strip().splitlines()) == 1

    def test_phase_row_in_window_file_code_2(self, tmp_path):
        # the row's kind is checked before its payload is decoded, so a
        # decimal phase row in a v1 file and a base64 one in a v2 file give
        # the same refusal
        cfg = rydberg_window_cfg(tmp_path, 22.0)
        p = simulated(tmp_path, dict(cfg, shots=20))
        snap_path = tmp_path / "snaps.txt"
        rows = {"v1": "phases=0.1,0.2 b=0",
                "v2": f"phases={b64([0.1, 0.2])} b=0"}
        original = snap_path.read_text()
        for version, row in rows.items():
            snap_path.write_text(original.replace("snapshots v2",
                                                  f"snapshots {version}", 1))
            rewrite_rows(snap_path, 19, [row])
            res = estimate_from(p, snap_path)
            assert res.exit_code == 2
            assert "line 25: phases= row" in res.output
            assert len(res.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("pattern, replacement, message", HEADER_EDITS)
    def test_incomplete_header_code_2(self, tmp_path, pattern, replacement,
                                      message):
        # a file without its seed header wrote seed 0 into every CSV row
        p = simulated(tmp_path, base_cfg(tmp_path, shots=10, seed=34))
        edit_file(tmp_path / "snaps.txt", pattern, replacement)
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert res.output.startswith("snapshot error: ")
        assert re.search(message, res.output)
        assert len(res.output.strip().splitlines()) == 1

    def test_row_without_outcome_code_2(self, tmp_path):
        p = simulated(tmp_path, base_cfg(tmp_path, shots=20))
        rewrite_rows(tmp_path / "snaps.txt", 19, ["t_us=3.0"])
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        # five header lines, then the 20th row
        assert "line 25" in res.output
        assert len(res.output.strip().splitlines()) == 1


def resonant_case():
    """E_0 + E_2 = 2 E_1 in the eigenbasis of a d = 4 GUE, with XZ and a
    random mixed state (truth -0.2082): ideal phases average the resonant
    elements of the map to 0, a long window keeps them at weight 1."""
    h = models.hamiltonian_from_unitary(models.gue_hamiltonian(4, 3).eigenbasis,
                                        [0.0, 1.0, 2.0, 3.7])
    a = models.random_hermitian(4, 5)
    rho = a @ a / np.trace(a @ a).real
    o = pauli_tensor("XZ")
    return h, rho, o, float(np.trace(o @ rho).real)


LONG_WINDOW = TimeModel("uniform-window", t_min=0.0, t_max=1e4)


class TestRecordChoosesTheMap:
    def test_ideal_phases_get_the_ideal_map(self):
        h, _, _, _ = resonant_case()
        assert cli._inverter(h, TimeModel("ideal-rdu")).mode == "ideal"

    def test_long_window_mean_is_exact(self):
        h, rho, o, truth = resonant_case()
        v = h.eigenbasis
        r, _ = dense_window_superoperator(h, LONG_WINDOW.t_min, LONG_WINDOW.t_max)
        mean_sigma = apply_packed_dense(r, v.conj().T @ rho @ v)  # eigenframe

        def mean(inv):
            return np.trace(v.conj().T @ o @ v
                            @ apply_n_inverse(inv, mean_sigma)).real

        inv = cli._inverter(h, LONG_WINDOW)
        assert inv.mode == "finite-time"
        assert mean(inv) == pytest.approx(truth, abs=1e-12)
        # the resonance keeps the ideal map biased at every window length
        assert mean(build_inverter(h)) == pytest.approx(-0.2633, abs=1e-4)

    def test_long_window_sample_mean(self):
        # 100 000 shots: the chosen map lands within 4 SE of the truth, the
        # ideal map (9.5 SE off at this seed) does not
        h, rho, o, truth = resonant_case()
        snaps = run_batch(h, rho, LONG_WINDOW, 100_000, 9)
        obs = Observable(o, name="XZ")
        rep = estimate_linear(cli._inverter(h, LONG_WINDOW), snaps, obs)
        assert abs(rep.value - truth) < 4 * rep.std_error
        ideal = estimate_linear(build_inverter(h), snaps, obs)
        assert abs(ideal.value - truth) > 4 * ideal.std_error

    @pytest.mark.parametrize("k", [2, 3])
    def test_design_grid_average_is_exact(self, k):
        h, rho, o, truth = resonant_case()
        inv = cli._inverter(h, TimeModel("design", k=k))
        avg = exact_average_state(inv, rho, DiagonalDesign(k, 4).enumerate_phases())
        assert np.trace(o @ avg).real == pytest.approx(truth, abs=1e-12)

    def test_design_k1_refused(self):
        # on its 2-point grid e^{2i(phi_m - phi_n)} = 1, so the ideal map's
        # exact average over all 16 grid points is biased
        h, rho, o, _ = resonant_case()
        avg = exact_average_state(build_inverter(h), rho,
                                  DiagonalDesign(1, 4).enumerate_phases())
        assert np.trace(o @ avg).real == pytest.approx(-0.1857, abs=1e-4)
        with pytest.raises(cli.ConfigError, match="not a 2-design"):
            cli._inverter(h, TimeModel("design", k=1))

    @pytest.mark.parametrize("k,code", [(1, 2), (2, 0), (3, 0)])
    def test_design_snapshots(self, tmp_path, k, code):
        p = simulated(tmp_path, base_cfg(tmp_path, time_model={"kind": "design",
                                                               "k": k}))
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == code, res.output
        if code:
            assert res.output.startswith("config error: design k=1 snapshots "
                                         "cannot be inverted")


class TestVarianceCommand:
    def test_reports_columns(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "var.csv"
        res = CliRunner().invoke(main, ["variance", "--config", p,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[0] == (f"# hamshadow variance v2 seed={cfg['seed']} "
                            f"config_digest={config_digest(cfg)}")
        assert lines[1] == VARIANCE_CSV_HEADER
        fields = lines[2].split(",")
        assert len(fields) == len(VARIANCE_CSV_HEADER.split(","))
        # exact second moment present and below the shadow-norm bound
        assert float(fields[1]) <= float(fields[2]) + 1e-9

    def test_rows_are_report_rows(self, tmp_path):
        cfg = base_cfg(tmp_path)
        cfg["estimators"]["observables"].append({"kind": "purity", "name": "pur"})
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "var.csv"
        res = CliRunner().invoke(main, ["variance", "--config", p,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        h = build_model(cfg)
        rho = build_state(cfg, h)
        inv = build_inverter(h)
        reports = [variance_report(inv, Observable(pauli_tensor("XZ")), rho=rho),
                   purity_variance_report(inv)]
        expected = [variance_row(name, rep, "d=4;mode=ideal", cfg["seed"],
                                 hamiltonian_fingerprint(h))
                    for rep, name in zip(reports, ["XZ", "pur"])]
        assert out.read_text().splitlines()[2:] == expected

    @pytest.mark.parametrize("seed", [[1, 2], -1, 1.5, "x", True])
    def test_bad_seed_code_2(self, tmp_path, seed):
        # a list seed was written raw: one field more than the header's columns
        p = write_cfg(tmp_path / "cfg.yaml", base_cfg(tmp_path, seed=seed))
        out = tmp_path / "var.csv"
        res = CliRunner().invoke(main, ["variance", "--config", p,
                                        "--out", str(out)])
        assert res.exit_code == 2
        assert res.output.startswith("config error: seed must be a "
                                     f"non-negative integer, got {seed!r}")
        assert not out.exists()


def variance_row(name, rep, note, seed, fingerprint) -> str:
    """The variance CSV row of a report."""
    def field(x):
        return "" if x is None else repr(x)
    return ",".join([name, field(rep.exact_second_moment),
                     field(rep.shadow_norm_sq), repr(rep.approx_f), note,
                     str(seed), fingerprint])


class TestCsvRow:
    def test_field_formats(self):
        assert _csv_row("XZ", 0.1, np.float64(1 / 3), None, 7, np.int64(3),
                        float("nan"), "ab") == \
            f"XZ,0.1,{1 / 3!r},,7,3,nan,ab"


class TestObservableNames:
    # a comma in a name wrote 8 fields under the estimate CSV's 7 columns
    # and exited 0; a leading # hid the row from comment-skipping readers
    @pytest.mark.parametrize("name", ["X,Z", 'say "XZ"', "XZ\n", "a\rb",
                                      "a\u2028b", "#XZ"])
    @pytest.mark.parametrize("command", ["estimate", "variance"])
    def test_row_breaking_name_code_2(self, tmp_path, command, name):
        simulated(tmp_path, base_cfg(tmp_path))
        cfg = base_cfg(tmp_path)
        cfg["estimators"]["observables"] = [
            {"kind": "purity"},
            {"kind": "pauli", "labels": "XZ", "name": name}]
        out = tmp_path / "out.csv"
        args = [command, "--config", write_cfg(tmp_path / "bad.yaml", cfg),
                "--out", str(out)]
        if command == "estimate":
            args += ["--snapshots", str(tmp_path / "snaps.txt")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2
        assert res.output.startswith(
            f"config error: config.estimators.observables[1].name {name!r} "
            "would break its CSV row")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["X Z", "<XZ>#", "fidélité", 12])
    def test_plain_name_heads_its_row(self, tmp_path, name):
        p = simulated(tmp_path, base_cfg(tmp_path))
        cfg = base_cfg(tmp_path)
        cfg["estimators"]["observables"][0]["name"] = name
        res = estimate_from(write_cfg(tmp_path / "named.yaml", cfg),
                            tmp_path / "snaps.txt")
        assert res.exit_code == 0, res.output
        assert res.output.splitlines()[2].split(",")[0] == str(name)


class TestPauliLabels:
    # a label off IXYZ used to end in a KeyError traceback, and a label
    # YAML reads as a number in a TypeError one, both with exit code 1
    @pytest.mark.parametrize("labels", ["XQ", 12, ["X", "Z"], "X", ""])
    @pytest.mark.parametrize("command", ["estimate", "variance"])
    def test_bad_labels_code_2(self, tmp_path, command, labels):
        simulated(tmp_path, base_cfg(tmp_path))
        cfg = base_cfg(tmp_path)
        cfg["estimators"]["observables"] = [{"kind": "pauli", "labels": labels}]
        args = [command, "--config", write_cfg(tmp_path / "bad.yaml", cfg)]
        if command == "estimate":
            args += ["--snapshots", str(tmp_path / "snaps.txt")]
        res = CliRunner().invoke(main, args)
        assert res.exception is None or isinstance(res.exception, SystemExit), \
            res.exception
        assert res.exit_code == 2
        assert res.output.startswith(
            "config error: pauli labels must be a string over IXYZ that covers "
            f"the 4-dim system, got {labels!r}")


def count_diagnoses(monkeypatch) -> list:
    """Patch the diagnosis to record the Hamiltonian of each call."""
    calls = []
    diagnose = shadowmap._diagnose

    def counted(h, *args):
        calls.append(h)
        return diagnose(h, *args)

    monkeypatch.setattr(shadowmap, "_diagnose", counted)
    return calls


class TestOneDiagnosisPerHamiltonian:
    @pytest.mark.parametrize("theta,code", [(None, 0), (0.0, 3)])
    def test_variance_command(self, tmp_path, monkeypatch, theta, code):
        calls = count_diagnoses(monkeypatch)
        cfg = base_cfg(tmp_path)
        if theta is not None:  # an incomplete single-qubit model
            cfg = base_cfg(tmp_path, model={"kind": "single-qubit-theta",
                                            "theta": theta},
                           state={"kind": "random-pure", "n": 1, "seed": 1})
            cfg["estimators"]["observables"] = [{"kind": "pauli", "labels": "X",
                                                 "name": "X"}]
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        res = CliRunner().invoke(main, ["variance", "--config", p])
        assert res.exit_code == code, res.output
        assert len(calls) == 1
        if code:
            assert res.output.startswith("Hamiltonian is not tomography-complete:\n")

    def test_fig10(self, tmp_path, monkeypatch):
        calls = count_diagnoses(monkeypatch)
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig10",
                                        "--out", str(tmp_path / "fig10.csv")])
        assert res.exit_code == 0, res.output
        # one per angle of the 25-point sweep, incomplete angles included
        assert len(calls) == 25 and len(set(map(id, calls))) == 25


class TestPurityBuildsNoSwap:
    def test_estimate_and_variance_rows(self, tmp_path, monkeypatch):
        cfg = base_cfg(tmp_path, shots=300)
        cfg["estimators"]["observables"].append({"kind": "purity", "name": "pur"})
        p = simulated(tmp_path, cfg)
        h = build_model(cfg)
        rho = build_state(cfg, h)
        inv = build_inverter(h)
        snaps = load_snapshots(tmp_path / "snaps.txt")
        pur = estimate_purity(inv, snaps)
        purity_row = (f"pur,{pur.value!r},{pur.std_error!r},{pur.num_snapshots},"
                      f"u-statistic,{snaps.seed},{snaps.hamiltonian_fingerprint}")
        reports = [variance_report(inv, Observable(pauli_tensor("XZ")), rho=rho),
                   purity_variance_report(inv)]
        variance_text = "".join(
            line + "\n" for line in
            [f"# hamshadow variance v2 seed={cfg['seed']} "
             f"config_digest={config_digest(cfg)}", VARIANCE_CSV_HEADER]
            + [variance_row(name, rep, "d=4;mode=ideal", cfg["seed"],
                            hamiltonian_fingerprint(h))
               for rep, name in zip(reports, ["XZ", "pur"])])

        def refuse(d):
            raise AssertionError(f"SWAP of two {d}-dimensional copies built")
        monkeypatch.setattr(qmatrix, "swap_operator", refuse)
        monkeypatch.setattr(hamshadow, "swap_operator", refuse)
        monkeypatch.setattr(cli, "swap_operator", refuse, raising=False)
        res = estimate_from(p, tmp_path / "snaps.txt", "--out",
                            str(tmp_path / "est.csv"))
        assert res.exit_code == 0, res.output
        assert (tmp_path / "est.csv").read_text().splitlines()[3] == purity_row
        res = CliRunner().invoke(main, ["variance", "--config", p,
                                        "--out", str(tmp_path / "var.csv")])
        assert res.exit_code == 0, res.output
        assert (tmp_path / "var.csv").read_bytes() == variance_text.encode()


class TestFramePotential:
    def test_exact_value(self):
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "-k", "2"])
        assert res.exit_code == 0
        assert f"{float(2 * 16 - 4)!r}" in res.output

    def test_finite_time_exceeds_exact(self):
        runner = CliRunner()
        res = runner.invoke(main, ["frame-potential", "--dim", "4", "-k", "2",
                                   "--mode", "finite-time",
                                   "--t-min", "0", "--t-max", "2"])
        assert res.exit_code == 0
        val = float(res.output.strip().split(":")[-1])
        assert val > 28.0

    def test_invalid_order_code_2(self):
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "-k", "9"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("mode", ["rdu-exact", "finite-time"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_bad_dim_code_2(self, dim, mode):
        res = CliRunner().invoke(main, ["frame-potential", "--dim", dim,
                                        "--mode", mode, "--t-max", "2"])
        assert res.exit_code == 2
        assert "dim must be a positive integer" in res.output

    @pytest.mark.parametrize("mode", ["finite-time"])
    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_window_code_2(self, mode, t_max):
        # finite-time printed nan with exit 0
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "--mode", mode, "--t-max", t_max])
        assert res.exit_code == 2
        assert "window bounds must be finite" in res.output

    @pytest.mark.parametrize("window", [("2", "2"), ("3", "2")])
    def test_empty_finite_time_window_code_2(self, window):
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "--mode", "finite-time",
                                        "--t-min", window[0], "--t-max", window[1]])
        assert res.exit_code == 2
        assert "t_max must exceed t_min" in res.output

    def test_only_exact_modes(self):
        res = CliRunner().invoke(main, ["frame-potential", "--help"])
        assert res.exit_code == 0
        assert "[rdu-exact|finite-time]" in res.output
        assert "--samples" not in res.output and "--seed" not in res.output
        assert not hasattr(hamshadow, "frame_potential_mc")
        assert not hasattr(hamshadow.rdu, "frame_potential_mc")

    def test_config_supplies_dim(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml",
                      {"model": {"kind": "gue", "dim": 4, "seed": 1}})
        runner = CliRunner()
        for args in (["--config", p], ["--config", p, "--dim", "4"]):
            res = runner.invoke(main, ["frame-potential", "-k", "2", *args])
            assert res.exit_code == 0, res.output
            assert f"F(2) rdu-exact d=4: {float(2 * 16 - 4)!r}" in res.output
        res = runner.invoke(main, ["frame-potential", "--config", p,
                                   "--mode", "finite-time", "--t-max", "2"])
        assert res.exit_code == 0, res.output
        assert "finite-time d=4 " in res.output

    def test_neither_dim_nor_config_code_2(self):
        res = CliRunner().invoke(main, ["frame-potential", "-k", "2"])
        assert res.exit_code == 2
        assert "give --dim or --config" in res.output

    def test_dim_disagreeing_with_config_code_2(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml",
                      {"model": {"kind": "gue", "dim": 4, "seed": 1}})
        res = CliRunner().invoke(main, ["frame-potential", "--config", p,
                                        "--dim", "8"])
        assert res.exit_code == 2
        assert "--dim 8 disagrees with the config's model dimension 4" in res.output


def test_flat_rydberg_positions_are_a_chain():
    h = build_model({"model": {"kind": "rydberg", "positions": [0.0, 8.781]}})
    assert h.dim == 4


class TestDiagnose:
    def test_complete_model(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml",
                      {"model": {"kind": "gue", "dim": 4, "seed": 1}})
        res = CliRunner().invoke(main, ["diagnose", "--config", p])
        assert res.exit_code == 0
        assert "fingerprint=" in res.output

    def test_incomplete_model_code_3(self, tmp_path):
        p = write_cfg(tmp_path / "cfg.yaml",
                      {"model": {"kind": "single-qubit-theta", "theta": 0.0}})
        res = CliRunner().invoke(main, ["diagnose", "--config", p])
        assert res.exit_code == 3


class TestReproduce:
    def test_fig8_gap_grows_with_system_size(self, tmp_path):
        out = tmp_path / "fig8.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig8",
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        gaps = [float(f) - float(r) for _, f, r in rows]
        assert all(g > 0 for g in gaps)
        assert gaps == sorted(gaps)

    def test_fig10_variance_peaks_at_incomplete_angles(self, tmp_path):
        out = tmp_path / "fig10.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig10",
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        complete = np.array([int(c) for _, c, _ in rows])
        assert 0 < complete.sum() < len(complete)
        var = np.array([float(v) for _, _, v in rows])
        # finite variances next to an incomplete angle dwarf the mid-sweep ones
        mid = var[complete == 1]
        assert np.nanmax(mid) > 10 * np.nanmin(mid)

    @pytest.mark.parametrize("figure", ["fig4b", "fig4c"])
    def test_singular_window_gives_nan_row(self, tmp_path, figure):
        # the first window of the seed-7 chain is singular; the sweep used
        # to end in a LinAlgError traceback
        out = tmp_path / f"{figure}.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", figure,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert rows[0] == ["2.0", "nan", "nan"]
        assert [r[0] for r in rows] == ["2.0", "5.0", "10.0", "20.0"]
        assert all(np.isfinite(float(x)) for r in rows[1:] for x in r)

    def test_refused_window_is_explained(self, tmp_path):
        # the sweep wrote 2.0,nan,nan and gave no reason; the reason goes to
        # stderr, so the CSV keeps its bytes
        out = tmp_path / "fig4b.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig4b",
                                        "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert out.read_text().splitlines()[:3] == [
            "# figure=fig4b seed=3 scale=desk",
            "window_dt_us,fidelity,std_error", "2.0,nan,nan"]
        [line] = res.output.splitlines()
        assert re.fullmatch(r"window dt=2\.0 us refused, its row is nan: "
                            r"finite-time superoperator is numerically singular "
                            r"\(cond=\d\.\d{3}e\+12, 1-norm\)", line), line

    @pytest.mark.parametrize("figure", ["fig3a", "fig3b", "fig10", "fig8",
                                        "fig13", "fig4b", "fig4c", "fig6",
                                        "fig12"])
    def test_variance_series_match_reference(self, tmp_path, figure):
        # reference series are committed seed-7 outputs; regrouping a sum
        # (the second moment, the window frame potential's quadrature, the
        # pair trace) may move only trailing digits. The fig3a, fig3b and
        # fig10 references no longer match the output byte for byte (the
        # second-moment kernel was regrouped twice since they were written),
        # fig13 now takes its pair traces in the eigenframe, and fig8 sums
        # S(tau) at the quadrature nodes by a GEMM of factored phases, so
        # they are pinned only to rtol 1e-10.
        # fig4b and fig4c run the finite-time inverter end to end, with the
        # refused first window as a nan row. Their windows have cond(G) up
        # to 2e8, so the rounding of R^-1, which moves with the BLAS thread
        # count, moves them by up to 1.4e-9 relative: they are pinned to
        # rtol 1e-7, about cond(G) times the double-precision epsilon.
        out = tmp_path / f"{figure}.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", figure,
                                        "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        ref = (DATA / f"reproduce_{figure}_seed7.csv").read_text().splitlines()
        lines = out.read_text().splitlines()
        assert lines[:2] == ref[:2]

        def values(rows):
            return np.array([[float(x) for x in r.split(",")] for r in rows])
        rtol = 1e-7 if figure in ("fig4b", "fig4c") else 1e-10
        np.testing.assert_allclose(values(lines[2:]), values(ref[2:]),
                                   rtol=rtol, atol=0)

    def test_negative_seed_code_2(self, tmp_path):
        # SeedSequence raised a ValueError traceback with exit 1
        out = tmp_path / "fig6.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", "fig6",
                                        "--seed", "-1", "--out", str(out)])
        assert res.exit_code == 2
        assert "Invalid value for '--seed'" in res.output
        assert not out.exists()

    def test_seed_recorded_in_header(self, tmp_path):
        out = tmp_path / "fig8.csv"
        CliRunner().invoke(main, ["reproduce", "--figure", "fig8",
                                  "--seed", "3", "--out", str(out)])
        assert "figure=fig8 seed=3" in out.read_text().splitlines()[0]
