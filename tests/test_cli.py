from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from hamshadow.cli import build_model, build_state, main
from hamshadow.estimators import CSV_HEADER, Observable
from hamshadow.models import pauli_tensor
from hamshadow.qmatrix import swap_operator
from hamshadow.shadowmap import build_inverter, hamiltonian_fingerprint
from hamshadow.variance import VARIANCE_CSV_HEADER, variance_report

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("figure", ["fig3a", "fig3b", "fig10"])
    def test_variance_series_match_reference(self, tmp_path, figure):
        # reference series are committed seed-7 outputs; regrouping the
        # second-moment sum may move only trailing digits
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
