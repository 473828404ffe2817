import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import hamshadow
from hamshadow import cli, qmatrix
from hamshadow.cli import build_model, build_state, config_digest, main
from hamshadow.estimators import CSV_HEADER, Observable, estimate_purity
from hamshadow.models import pauli_tensor
from hamshadow.qmatrix import swap_operator
from hamshadow.rdu import frame_potential_mc
from hamshadow.sampler import TimeModel, load_snapshots
from hamshadow.shadowmap import build_inverter, hamiltonian_fingerprint
from hamshadow.variance import VARIANCE_CSV_HEADER, variance_report

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
])
def test_test_oracles_are_not_shipped(module, name):
    # the forward map, rho-hat stacks and moment oracles live under tests/
    assert not hasattr(getattr(hamshadow, module), name)
    assert not hasattr(hamshadow, name)


def test_package_import_loads_no_scipy():
    # scipy (even scipy.linalg.blas) costs several times the whole package
    # import, paid by every CLI call; only the Haar baseline loads it, on use
    src = os.path.dirname(os.path.dirname(hamshadow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, hamshadow, hamshadow.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
        assert lines[1] == CSV_HEADER
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

    def test_wrong_postprocessing_labeled(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        runner = CliRunner()
        runner.invoke(main, ["simulate", "--config", p])
        res = runner.invoke(main, ["estimate", "--config", p,
                                   "--snapshots", str(tmp_path / "snaps.txt"),
                                   "--wrong-postprocessing"])
        assert res.exit_code == 0
        assert "wrong-postprocessing" in res.output

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
        # fidelity of order 1e7 and exit 0
        simulated(tmp_path, rydberg_window_cfg(tmp_path, 22.0))
        narrow = write_cfg(tmp_path / "narrow.yaml",
                           rydberg_window_cfg(tmp_path, 4.0))
        res = estimate_from(narrow, tmp_path / "snaps.txt", "--finite-time")
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
        assert "not invertible" in res.output

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
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert "exceeds Hilbert-space dimension" in res.output
        assert len(res.output.strip().splitlines()) == 1

    def test_phase_row_in_window_file_code_2(self, tmp_path):
        cfg = rydberg_window_cfg(tmp_path, 22.0)
        p = simulated(tmp_path, dict(cfg, shots=20))
        rewrite_rows(tmp_path / "snaps.txt", 19, ["phases=0.1,0.2 b=0"])
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        assert "line 25: phases= row" in res.output
        assert len(res.output.strip().splitlines()) == 1

    def test_row_without_outcome_code_2(self, tmp_path):
        p = simulated(tmp_path, base_cfg(tmp_path, shots=20))
        rewrite_rows(tmp_path / "snaps.txt", 19, ["t_us=3.0"])
        res = estimate_from(p, tmp_path / "snaps.txt")
        assert res.exit_code == 2
        # five header lines, then the 20th row
        assert "line 25" in res.output
        assert len(res.output.strip().splitlines()) == 1


class TestVarianceCommand:
    def test_reports_columns(self, tmp_path):
        cfg = base_cfg(tmp_path)
        p = write_cfg(tmp_path / "cfg.yaml", cfg)
        out = tmp_path / "var.csv"
        res = CliRunner().invoke(main, ["variance", "--config", p,
                                        "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = out.read_text().splitlines()
        assert lines[1] == VARIANCE_CSV_HEADER
        fields = lines[2].split(",")
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
        obs = [Observable(pauli_tensor("XZ"), name="XZ"),
               Observable(swap_operator(4), copies=2, name="pur")]
        expected = [variance_report(inv, o, rho=rho).csv_row(
            o.name, cfg["seed"], hamiltonian_fingerprint(h)) for o in obs]
        assert out.read_text().splitlines()[2:] == expected


class TestPurityBuildsNoSwap:
    def test_estimate_and_variance_rows(self, tmp_path, monkeypatch):
        cfg = base_cfg(tmp_path, shots=300)
        cfg["estimators"]["observables"].append({"kind": "purity", "name": "pur"})
        p = simulated(tmp_path, cfg)
        h = build_model(cfg)
        rho = build_state(cfg, h)
        inv = build_inverter(h)
        snaps = load_snapshots(tmp_path / "snaps.txt")
        purity_row = estimate_purity(inv, snaps).csv_row(
            "pur", snaps.seed, snaps.hamiltonian_fingerprint)
        # the variance rows through the two-copy SWAP observable
        obs = [Observable(pauli_tensor("XZ"), name="XZ"),
               Observable(swap_operator(4), copies=2, name="pur")]
        variance_text = "".join(
            line + "\n" for line in
            [f"# config_digest={config_digest(cfg)}", VARIANCE_CSV_HEADER]
            + [variance_report(inv, o, rho=rho).csv_row(
                o.name, cfg["seed"], hamiltonian_fingerprint(h)) for o in obs])

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

    @pytest.mark.parametrize("mode", ["rdu-exact", "finite-time", "mc",
                                      "mc-window"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_bad_dim_code_2(self, dim, mode):
        # --mode mc printed "F(2) mc d=0: 0.0 +- 0.0" with exit 0
        res = CliRunner().invoke(main, ["frame-potential", "--dim", dim,
                                        "--mode", mode, "--t-max", "2"])
        assert res.exit_code == 2
        assert "dim must be a positive integer" in res.output

    @pytest.mark.parametrize("mode", ["finite-time", "mc-window"])
    @pytest.mark.parametrize("t_max", ["inf", "nan"])
    def test_non_finite_window_code_2(self, mode, t_max):
        # finite-time printed nan with exit 0; mc-window raised OverflowError
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "--mode", mode, "--t-max", t_max,
                                        "--samples", "10"])
        assert res.exit_code == 2
        assert "window bounds must be finite" in res.output

    @pytest.mark.parametrize("window", [("2", "2"), ("3", "2"), ("-1", "2")])
    def test_empty_or_negative_mc_window_code_2(self, window):
        res = CliRunner().invoke(main, ["frame-potential", "--dim", "4",
                                        "--mode", "mc-window",
                                        "--t-min", window[0], "--t-max", window[1],
                                        "--samples", "10"])
        assert res.exit_code == 2
        assert "uniform-window requires t_max > t_min >= 0" in res.output

    def test_mc_modes_match_the_library(self):
        runner = CliRunner()
        res = runner.invoke(main, ["frame-potential", "--dim", "3", "--mode", "mc",
                                   "--samples", "50", "--seed", "4"])
        assert res.exit_code == 0, res.output
        est, err = frame_potential_mc(TimeModel("ideal-rdu"), np.zeros(3), 2, 50, 4)
        assert res.output == f"F(2) mc d=3: {est!r} +- {err!r}\n"
        res = runner.invoke(main, ["frame-potential", "--dim", "3",
                                   "--mode", "mc-window", "--t-min", "1",
                                   "--t-max", "3", "--samples", "50", "--seed", "4"])
        assert res.exit_code == 0, res.output
        tm = TimeModel("uniform-window", t_min=1.0, t_max=3.0)
        est, err = frame_potential_mc(tm, np.arange(3.0), 2, 50, 4)
        assert res.output == f"F(2) mc-window d=3: {est!r} +- {err!r}\n"

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

    @pytest.mark.parametrize("figure", ["fig3a", "fig3b", "fig10", "fig8",
                                        "fig13"])
    def test_variance_series_match_reference(self, tmp_path, figure):
        # reference series are committed seed-7 outputs; regrouping a sum
        # (the second moment, the window frame potential's quadrature, the
        # pair trace) may move only trailing digits. The fig3a, fig3b and
        # fig10 references no longer match the output byte for byte (the
        # second-moment kernel was regrouped twice since they were written),
        # and fig13 now takes its pair traces in the eigenframe, so they are
        # pinned only to rtol 1e-10; fig8 still matches byte for byte.
        out = tmp_path / f"{figure}.csv"
        res = CliRunner().invoke(main, ["reproduce", "--figure", figure,
                                        "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0, res.output
        ref = (DATA / f"reproduce_{figure}_seed7.csv").read_text().splitlines()
        lines = out.read_text().splitlines()
        assert lines[:2] == ref[:2]

        def values(rows):
            return np.array([[float(x) for x in r.split(",")] for r in rows])
        np.testing.assert_allclose(values(lines[2:]), values(ref[2:]),
                                   rtol=1e-10, atol=0)

    def test_seed_recorded_in_header(self, tmp_path):
        out = tmp_path / "fig8.csv"
        CliRunner().invoke(main, ["reproduce", "--figure", "fig8",
                                  "--seed", "3", "--out", str(out)])
        assert "figure=fig8 seed=3" in out.read_text().splitlines()[0]
