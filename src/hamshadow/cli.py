"""Config-driven experiment runner and figure-reproduction harness.

All commands are deterministic under a fixed seed and config. Exit codes:
0 success, 2 config error, 3 completeness abort (an incomplete model or a
singular finite-time window), 4 fingerprint mismatch.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from dataclasses import dataclass

import click
import numpy as np
import yaml

from . import models
from .estimators import (
    Observable,
    estimate_linear,
    estimate_purity,
    snapshot_amplitudes,
    snapshot_values,
    wrong_postprocessing_values,
)
from .qmatrix import SpectralHamiltonian, evolve, partial_trace
from .rdu import (
    DegeneracySpec,
    frame_potential_finite_time,
    frame_potential_rdu_exact,
)
from .sampler import (
    SHOT_LIMIT,
    TimeModel,
    load_snapshots,
    run_batch,
    save_snapshots,
    write_manifest,
)
from .shadowmap import (
    IncompleteInverterError,
    ShadowInverter,
    apply_n_inverse,
    build_inverter,
    diagnose_detection,
    hamiltonian_fingerprint,
    snapshot_sigmas,
)
from .variance import (
    empirical_variance,
    purity_variance_proxy,
    purity_variance_report,
    variance_approx_linear,
    variance_exact,
    variance_report,
)

EXIT_CONFIG = 2
EXIT_INCOMPLETE = 3
EXIT_FINGERPRINT = 4


class ConfigError(Exception):
    pass


def _require_keys(section: dict, allowed: set, required: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def load_config(path) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as e:
        raise ConfigError(f"cannot read config: {e}")
    _require_keys(cfg, {"version", "model", "state", "time_model", "shots",
                        "seed", "estimators", "output"},
                  {"model"}, "config")
    if cfg.get("version", 1) != 1:
        raise ConfigError("unsupported config version")
    return cfg


def config_digest(cfg: dict) -> str:
    """Digest of the experiment a config describes; output paths left out."""
    exp = {key: val for key, val in cfg.items() if key != "output"}
    blob = yaml.safe_dump(exp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def build_model(cfg: dict) -> SpectralHamiltonian:
    m = cfg["model"]
    _require_keys(m, {"kind", "num_atoms", "seed", "spacing", "jitter",
                      "positions", "dim", "theta", "n"}, {"kind"},
                  "config.model")
    kind = m["kind"]
    try:
        seed = _config_int("seed", m.get("seed", 0), 0)
        if kind == "rydberg":
            if "positions" in m:
                pos = np.asarray(m["positions"], dtype=float)
            else:
                pos = models.random_positions(
                    _config_int("num_atoms", m["num_atoms"], 1),
                    m.get("spacing", models.DEFAULT_SPACING),
                    m.get("jitter", models.DEFAULT_JITTER), seed)
            return models.rydberg_hamiltonian(models.RydbergParams(pos))
        if kind == "gue":
            return models.gue_hamiltonian(_config_int("dim", m["dim"], 1), seed)
        if kind == "exp-family":
            v = models.exp_family_vh(_config_int("dim", m["dim"], 1),
                                     float(m["theta"]), seed)
            return models.hamiltonian_from_unitary(v)
        if kind == "single-qubit-theta":
            return models.single_qubit_theta(float(m["theta"]))
        if kind == "hadamard":
            return models.hamiltonian_from_unitary(
                models.hadamard_basis(_config_int("n", m["n"], 0)))
    except (ConfigError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad model section: {e}")
    raise ConfigError(f"unknown model kind {kind!r}")


def build_state(cfg: dict, h: SpectralHamiltonian) -> np.ndarray:
    """The configured state; ConfigError unless it has the model's dimension."""
    s = cfg.get("state")
    if s is None:
        raise ConfigError("config.state is required for this command")
    _require_keys(s, {"kind", "n", "n_zero", "n_one", "seed", "beta"},
                  {"kind"}, "config.state")
    kind = s["kind"]
    try:
        n, seed, n_zero, n_one = (_config_int(key, s.get(key, 0), 0)
                                  for key in ("n", "seed", "n_zero", "n_one"))
        beta = float(s.get("beta", 1.0))
        if kind == "ghz":
            rho = models.ghz_state(n)
        elif kind == "cluster":
            rho = models.cluster_state(n)
        elif kind == "ladder-product":
            rho = models.ladder_product_state(n_zero, n_one)
        elif kind == "random-pure":
            rho = models.random_pure_state(2**n, seed)
        elif kind == "thermal":
            rho = models.thermal_state(h, beta)
        else:
            raise ConfigError(f"unknown state kind {kind!r}")
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"bad state section: {e}")
    if len(rho) != h.dim:
        raise ConfigError(f"bad state section: the {kind} state has dimension "
                          f"{len(rho)}, but the model has dimension {h.dim}")
    return rho


def build_time_model(cfg: dict) -> TimeModel:
    t = cfg.get("time_model")
    if t is None:
        raise ConfigError("config.time_model is required for this command")
    _require_keys(t, {"kind", "t_min", "t_max", "k"}, {"kind"},
                  "config.time_model")
    try:
        return TimeModel(t["kind"], t_min=float(t.get("t_min", 0.0)),
                         t_max=float(t.get("t_max", 0.0)),
                         k=_config_int("k", t.get("k", 2), 1))
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"bad time_model section: {e}")


@dataclass(frozen=True)
class Purity:
    """A `kind: purity` entry: Tr(rho^2), estimated by the U-statistic and
    given the SWAP variance proxy, with no two-copy SWAP matrix built."""

    name: str = "purity"


def _check_name(name, where: str) -> None:
    """ConfigError unless name heads a CSV row as one plain field, which a
    comma, double quote or line break breaks, and a leading # hides."""
    text = str(name)
    # any line break splits text + "." in two, a trailing one included
    if (text.startswith("#") or "," in text or '"' in text
            or len((text + ".").splitlines()) > 1):
        raise ConfigError(f"{where}.name {text!r} would break its CSV row: "
                          "no comma, double quote or line break, and no "
                          "leading #")


def build_observables(cfg: dict, rho: np.ndarray | None, d: int) -> list:
    """One Observable per configured one-copy entry, one Purity per purity."""
    e = cfg.get("estimators", {})
    _require_keys(e, {"method", "batches", "observables"}, set(),
                  "config.estimators")
    specs = e.get("observables", [])
    if not isinstance(specs, list):
        raise ConfigError("config.estimators.observables must be a list of "
                          f"mappings, got {specs!r}")
    out = []
    for i, spec in enumerate(specs):
        where = f"config.estimators.observables[{i}]"
        _require_keys(spec, {"name", "kind", "labels"}, {"kind"}, where)
        if "name" in spec:
            _check_name(spec["name"], where)
        kind = spec["kind"]
        if kind == "pauli":
            labels = spec.get("labels")
            if (not isinstance(labels, str) or not labels
                    or not set(labels) <= set(models.PAULI)
                    or 2**len(labels) != d):
                raise ConfigError(f"pauli labels must be a string over IXYZ that "
                                  f"covers the {d}-dim system, got {labels!r}")
            out.append(Observable(models.pauli_tensor(labels),
                                  name=spec.get("name", labels)))
        elif kind == "fidelity":
            if rho is None:
                raise ConfigError("fidelity observable needs a state section")
            out.append(Observable(rho, name=spec.get("name", "fidelity")))
        elif kind == "purity":
            out.append(Purity(spec.get("name", "purity")))
        else:
            raise ConfigError(f"unknown observable kind {kind!r}")
    if not out:
        raise ConfigError("no observables configured")
    return out


def _estimator_settings(cfg: dict) -> tuple[str, int]:
    e = cfg.get("estimators", {})
    method = e.get("method", "mean")
    if method not in ("mean", "median-of-means"):
        raise ConfigError(f"unknown estimator method {method!r}")
    batches = (_config_int("batches", e.get("batches", 1), 1)
               if method == "median-of-means" else 1)
    return method, batches


def _config_int(name: str, value, minimum: int) -> int:
    """value if it is an integer of at least minimum (0 or 1), else ConfigError."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        kind = "positive" if minimum == 1 else "non-negative"
        raise ConfigError(f"{name} must be a {kind} integer, got {value!r}")
    return value


def _check_snapshot_window(cfg: dict, recorded: TimeModel) -> None:
    """ConfigError unless the snapshots were drawn on a uniform window that
    the config declares too.

    The finite-time inverse is unbiased only for the window that produced
    the data, so any other recorded ensemble is refused.
    """
    if recorded.kind != "uniform-window":
        raise ConfigError("--finite-time needs uniform-window snapshots; the "
                          f"file declares {recorded.describe()!r}")
    declared = build_time_model(cfg)
    if declared.describe() != recorded.describe():
        raise ConfigError(f"snapshots were drawn with {recorded.describe()!r} "
                          f"but the config declares {declared.describe()!r}")


def _inverter(h: SpectralHamiltonian, tm: TimeModel) -> ShadowInverter:
    """The inverse of the map that data drawn under tm went through.

    A uniform window gets its finite-time map. Ideal phases, and a design of
    order k >= 2, which matches their second moments, get the ideal map. A
    k = 1 design is refused: its 2-point phase grid is not a 2-design, and
    the ideal map is biased on it.
    """
    if tm.kind == "uniform-window":
        return build_inverter(h, mode="finite-time", t_min=tm.t_min, t_max=tm.t_max)
    if tm.kind == "design" and tm.k < 2:
        raise ConfigError(f"{tm.describe()} snapshots cannot be inverted: a "
                          "2-point phase grid is not a 2-design, so the ideal "
                          "map is biased on them")
    return build_inverter(h)


class _Commands(click.Group):
    """Every command exits 2 on a ConfigError, naming it a config error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as e:
            _fail(EXIT_CONFIG, f"config error: {e}")


@click.group(cls=_Commands)
def main():
    """Quench-dynamics shadow estimation toolkit."""


def _fail(code: int, msg: str):
    click.echo(msg, err=True)
    sys.exit(code)


def _output_error(path, e: OSError):
    _fail(EXIT_CONFIG, f"output error: cannot write {path}: {e.strerror or e}")


def _discard(paths):
    for path in filter(os.path.exists, paths):
        os.remove(path)


@contextlib.contextmanager
def _require_writable(paths):
    """Create each output file empty before the work in the block that fills
    them, so an unwritable path exits 2 at once, and leave none of them if
    one cannot be created or the block fails in any way."""
    for i, path in enumerate(paths):
        try:
            open(path, "w").close()
        except OSError as e:
            _discard(paths[:i])
            _output_error(path, e)
    try:
        yield
    except BaseException:  # an exit or interrupt too; re-raised
        _discard(paths)
        raise


# The CSV outputs are written here only; the estimate and variance CSVs'
# comment lines name their format versions, which a change to their columns
# or rows bumps.
ESTIMATE_CSV_HEADER = "observable,value,std_error,num_snapshots,method,seed,fingerprint"
VARIANCE_CSV_HEADER = ("observable,exact_second_moment,shadow_norm_sq,approx_f,"
                       "dims_note,seed,fingerprint")


def _csv_row(*fields) -> str:
    """One CSV row: a float by repr(float(x)), None empty, the rest by str."""
    return ",".join("" if x is None else repr(float(x)) if isinstance(x, float)
                    else str(x) for x in fields)


def _emit(out_path, lines: list):
    """Write the lines to out_path, or echo them when no path is given."""
    text = "".join(line + "\n" for line in lines)
    if not out_path:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w") as f:
            f.write(text)
    except OSError as e:
        _output_error(out_path, e)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override config seed.")
@click.option("--shots", type=int, default=None, help="Override config shots.")
@click.option("--allow-incomplete", is_flag=True)
def simulate(config_path, seed, shots, allow_incomplete):
    """Run a simulated experiment and write snapshots plus a manifest."""
    cfg = load_config(config_path)
    h = build_model(cfg)
    rho = build_state(cfg, h)
    tm = build_time_model(cfg)
    num_shots = _config_int(
        "shots", shots if shots is not None else cfg.get("shots", 1000), 1)
    if num_shots >= SHOT_LIMIT:
        raise ConfigError(f"shots must be below {SHOT_LIMIT}, got {num_shots}")
    the_seed = _config_int(
        "seed", seed if seed is not None else cfg.get("seed", 0), 0)
    out = cfg.get("output", {})
    _require_keys(out, {"snapshots", "manifest"}, {"snapshots"}, "config.output")
    diag = diagnose_detection(h)
    if not diag.complete and not allow_incomplete:
        _fail(EXIT_INCOMPLETE,
              "Hamiltonian is not tomography-complete:\n" + diag.summary())
    paths = [out[key] for key in ("snapshots", "manifest") if key in out]
    with _require_writable(paths):
        snaps = run_batch(h, rho, tm, num_shots, the_seed)
        path = out["snapshots"]
        try:
            save_snapshots(path, snaps)
            if "manifest" in out:
                path = out["manifest"]
                write_manifest(path, snaps, {"config_digest": config_digest(cfg),
                                             "completeness": diag.verdict})
        except OSError as e:
            _output_error(path, e)
    click.echo(f"wrote {num_shots} snapshots to {out['snapshots']}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--snapshots", "snap_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--finite-time", is_flag=True,
              help="Redundant: the snapshot header's time model picks the "
                   "inverse map. Refuses snapshots not drawn on a uniform window.")
def estimate(config_path, snap_path, out_path, finite_time):
    """Estimate configured observables from a snapshot file, inverting the
    map of the time model its header records."""
    cfg = load_config(config_path)
    h = build_model(cfg)
    rho = build_state(cfg, h) if "state" in cfg else None
    method, batches = _estimator_settings(cfg)
    obs = build_observables(cfg, rho, h.dim)
    try:
        snaps = load_snapshots(snap_path)
    except (OSError, ValueError) as e:
        _fail(EXIT_CONFIG, f"snapshot error: {e}")
    if snaps.hamiltonian_fingerprint != hamiltonian_fingerprint(h):
        _fail(EXIT_FINGERPRINT,
              "snapshot fingerprint does not match the configured Hamiltonian")
    if finite_time or snaps.time_model.kind == "uniform-window":
        _check_snapshot_window(cfg, snaps.time_model)
    if batches > len(snaps) and not all(isinstance(o, Purity) for o in obs):
        raise ConfigError(f"estimators.batches={batches} exceeds the "
                          f"{len(snaps)} snapshots in {snap_path}")
    try:
        inv = _inverter(h, snaps.time_model)
    except (np.linalg.LinAlgError, IncompleteInverterError) as e:
        _fail(EXIT_INCOMPLETE, str(e))
    except ValueError as e:  # the finite-time memory guard
        _fail(EXIT_CONFIG, f"inverter error: {e}")
    lines = [f"# hamshadow estimates v3 seed={snaps.seed} "
             f"config_digest={config_digest(cfg)}", ESTIMATE_CSV_HEADER]
    try:
        for o in obs:
            rep = (estimate_purity(inv, snaps) if isinstance(o, Purity)
                   else estimate_linear(inv, snaps, o, num_batches=batches))
            lines.append(_csv_row(o.name, rep.value, rep.std_error,
                                  rep.num_snapshots, rep.method, snaps.seed,
                                  snaps.hamiltonian_fingerprint))
    except ValueError as e:
        _fail(EXIT_CONFIG, f"snapshot error: {e}")
    _emit(out_path, lines)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path())
def variance(config_path, out_path):
    """Exact and approximate variance figures for configured observables."""
    cfg = load_config(config_path)
    h = build_model(cfg)
    rho = build_state(cfg, h) if "state" in cfg else None
    obs = build_observables(cfg, rho, h.dim)
    seed = _config_int("seed", cfg.get("seed", 0), 0)
    try:
        inv = build_inverter(h)
    except IncompleteInverterError as e:
        _fail(EXIT_INCOMPLETE, str(e))
    fp = hamiltonian_fingerprint(h)
    note = f"d={inv.dim};mode={inv.mode}"
    lines = [f"# hamshadow variance v2 seed={seed} "
             f"config_digest={config_digest(cfg)}", VARIANCE_CSV_HEADER]
    for o in obs:
        rep = (purity_variance_report(inv) if isinstance(o, Purity)
               else variance_report(inv, o, rho=rho))
        lines.append(_csv_row(o.name, rep.exact_second_moment, rep.shadow_norm_sq,
                              rep.approx_f, note, seed, fp))
    _emit(out_path, lines)


@main.command("frame-potential")
@click.option("--dim", type=int, default=None,
              help="Hilbert-space dimension; optional with --config, which fixes it.")
@click.option("-k", "order", type=int, default=2)
@click.option("--mode", type=click.Choice(["rdu-exact", "finite-time"]),
              default="rdu-exact")
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="Supplies the model energies for the finite-time mode.")
@click.option("--t-min", type=float, default=0.0)
@click.option("--t-max", type=float, default=0.0)
def frame_potential(dim, order, mode, config_path, t_min, t_max):
    """Exact frame potential of the phase ensemble: ideal or finite-window."""
    if dim is None and config_path is None:
        _fail(EXIT_CONFIG, "invalid frame-potential request: give --dim or --config")
    if dim is not None:
        try:
            _config_int("dim", dim, 1)
        except ConfigError as e:
            _fail(EXIT_CONFIG, f"invalid frame-potential request: {e}")
        energies = np.arange(dim, dtype=float)
    if config_path is not None:
        h = build_model(load_config(config_path))
        if dim is not None and dim != h.dim:
            _fail(EXIT_CONFIG, f"invalid frame-potential request: --dim {dim} "
                  f"disagrees with the config's model dimension {h.dim}")
        energies = h.energies
        dim = h.dim
    try:
        if mode == "rdu-exact":
            val = frame_potential_rdu_exact(order, dim)
            click.echo(f"F({order}) rdu-exact d={dim}: {val!r}")
        else:
            val = frame_potential_finite_time(
                DegeneracySpec(energies), order, t_min, t_max)
            click.echo(f"F({order}) finite-time d={dim} "
                       f"window=[{t_min},{t_max}]: {val!r}")
    except ValueError as e:
        _fail(EXIT_CONFIG, f"invalid frame-potential request: {e}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def diagnose(config_path):
    """Print the tomography-completeness diagnosis for the configured model."""
    h = build_model(load_config(config_path))
    diag = diagnose_detection(h)
    click.echo(diag.summary())
    click.echo(f"fingerprint={hamiltonian_fingerprint(h)}")
    if not diag.complete:
        sys.exit(EXIT_INCOMPLETE)


FIGURES = {}


def _figure(key):
    def deco(fn):
        FIGURES[key] = fn
        return fn
    return deco


@_figure("fig3a")
def _repro_fig3a(seed):
    """Variance proxy vs exact variance for a 3-qubit Pauli string."""
    o = Observable(models.pauli_tensor("XXX"), name="XXX")
    rho = models.ghz_state(3)
    rows = []
    thetas = [0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0]
    for theta in thetas:
        fs, exacts = [], []
        for rep in range(10):
            v = models.exp_family_vh(8, theta, seed + rep)
            inv = build_inverter(models.hamiltonian_from_unitary(v))
            fs.append(variance_approx_linear(inv, o))
            exacts.append(variance_exact(inv, o, rho))
        rows.append((theta, float(np.median(fs)), float(np.median(exacts))))
    return "theta,approx_f_median,variance_exact_median", rows


@_figure("fig3b")
def _repro_fig3b(seed):
    """Fidelity-estimation variance growth with qubit number."""
    rows = []
    for n in range(2, 6):
        rho = models.ghz_state(n)
        o = Observable(rho, name="fidelity")
        exacts = []
        for rep in range(5):
            v = models.exp_family_vh(2**n, 2.0, seed + rep)
            inv = build_inverter(models.hamiltonian_from_unitary(v))
            exacts.append(variance_exact(inv, o, rho))
        rows.append((n, float(np.median(exacts))))
    return "n,variance_exact_median", rows


def _rydberg_setup(n, seed):
    pos = models.random_positions(n, seed=seed)
    return models.rydberg_hamiltonian(models.RydbergParams(pos))


def _window_sweep(seed, rho, o, header):
    """Estimate vs time-window length on a 4-atom chain, corrected inversion."""
    h = _rydberg_setup(4, seed)
    rows = []
    for dt in [2.0, 5.0, 10.0, 20.0]:
        tm = TimeModel("uniform-window", t_min=2.0, t_max=2.0 + dt)
        try:
            inv = _inverter(h, tm)
        except np.linalg.LinAlgError as e:  # numerically singular window
            click.echo(f"window dt={dt!r} us refused, its row is nan: {e}", err=True)
            rows.append((dt, float("nan"), float("nan")))
            continue
        rep = estimate_linear(inv, run_batch(h, rho, tm, 4000, seed), o)
        rows.append((dt, rep.value, rep.std_error))
    return f"window_dt_us,{header},std_error", rows


@_figure("fig4b")
def _repro_fig4b(seed):
    """Rydberg GHZ fidelity vs time-window length, corrected inversion."""
    rho = models.ghz_state(4)
    return _window_sweep(seed, rho, Observable(rho, name="fidelity"), "fidelity")


@_figure("fig4c")
def _repro_fig4c(seed):
    """Rydberg cluster-state stabilizer expectation vs window length."""
    o = Observable(models.pauli_tensor("ZXZI"), name="ZXZI")
    return _window_sweep(seed, models.cluster_state(4), o, "stabilizer")


@_figure("fig4d")
def _repro_fig4d(seed):
    """Subsystem purity along quench dynamics of a 6-atom ladder.

    Desk-scale substitute for the 12-atom ladder: two legs of 3 atoms,
    evolve, trace out the upper leg, then run a fresh 3-atom shadow
    experiment on the reduced state.
    """
    spacing = 10.733
    upper = [(j * spacing, 0.0) for j in range(3)]
    lower = [(j * spacing, spacing) for j in range(3)]
    h6 = models.rydberg_hamiltonian(models.RydbergParams(np.array(upper + lower)))
    rho0 = models.ladder_product_state(3, 3)
    # fixed well-conditioned chain for the fresh experiment on the kept leg
    h3 = _rydberg_setup(3, seed=8)
    inv3 = build_inverter(h3)
    rows = []
    for i, t in enumerate([0.0, 0.2, 0.4, 0.8, 1.2, 2.0]):
        rho_t = evolve(h6, t, rho0)
        reduced = partial_trace(rho_t, [2] * 6, keep=[3, 4, 5])
        reduced = (reduced + reduced.conj().T) / 2
        true_purity = float(np.trace(reduced @ reduced).real)
        tm = TimeModel("ideal-rdu")
        snaps = run_batch(h3, reduced, tm, 20000, seed + i)
        rep = estimate_purity(inv3, snaps)
        rows.append((t, rep.value, rep.std_error, true_purity))
    return "t_us,purity,std_error,purity_true", rows


@_figure("fig6")
def _repro_fig6(seed):
    """Converging vs biased post-processing on the same snapshot stream."""
    h = models.gue_hamiltonian(8, seed)
    rho = models.ghz_state(3)
    o = Observable(rho, name="fidelity")
    tm = TimeModel("ideal-rdu")
    snaps = run_batch(h, rho, tm, 10000, seed)
    inv = build_inverter(h)
    good = snapshot_values(inv, snaps, o)
    bad = wrong_postprocessing_values(inv, snaps, o)
    rows = []
    for k in [100, 300, 1000, 3000, 10000]:
        rows.append((k, float(np.mean(good[:k])), float(np.mean(bad[:k]))))
    return "k,estimate,wrong_postprocessing_estimate", rows


@_figure("fig8")
def _repro_fig8(seed):
    """Finite-window frame potential vs the ideal-phase value."""
    rows = []
    for n in range(2, 6):
        d = 2**n
        h = models.gue_hamiltonian(d, seed)
        f_window = frame_potential_finite_time(
            DegeneracySpec(h.energies), 2, 0.0, 20.0)
        f_rdu = frame_potential_rdu_exact(2, d)
        rows.append((n, f_window, f_rdu))
    return "n,f2_finite_time,f2_rdu", rows


@_figure("fig10")
def _repro_fig10(seed):
    """Single-qubit sweep: variance diverges near incomplete angles."""
    o = Observable(models.PAULI["X"] + models.PAULI["Y"] + models.PAULI["Z"],
                   name="X+Y+Z")
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    rows = []
    for theta in np.linspace(0.05, np.pi - 0.05, 25):
        try:
            inv = build_inverter(models.single_qubit_theta(float(theta)))
        except IncompleteInverterError:
            rows.append((float(theta), 0, float("nan")))
            continue
        rows.append((float(theta), 1, variance_exact(inv, o, rho)))
    return "theta,complete,variance_exact", rows


@_figure("fig12")
def _repro_fig12(seed):
    """Flat-eigenbasis protocol variance against the 3 Tr(O^2) bound."""
    rows = []
    for n in range(2, 5):
        d = 2**n
        v = models.hadamard_basis(n)
        h = models.hamiltonian_from_unitary(v)
        inv = build_inverter(h, mode="pseudo-inverse")
        o = models.pauli_tensor("X" * n)
        rho = models.ghz_state(n)
        rho_rot = v @ rho @ v.conj().T
        o_rot = Observable(v @ o @ v.conj().T, name="X" * n)
        tm = TimeModel("ideal-rdu")
        snaps = run_batch(h, rho_rot, tm, 5000, seed + n)
        vals = snapshot_values(inv, snaps, o_rot)
        bound = 3 * float(np.trace(o @ o).real)
        rows.append((n, empirical_variance(vals), bound))
    return "n,empirical_variance,bound_3_tr_o2", rows


@_figure("fig13")
def _repro_fig13(seed):
    """Purity-estimation variance proxy vs empirical pair variance."""
    rows = []
    for n in (2, 3):
        d = 2**n
        h = models.gue_hamiltonian(d, seed + n)
        inv = build_inverter(h)
        approx = purity_variance_proxy(inv)
        rho = models.random_pure_state(d, seed + n)
        tm = TimeModel("ideal-rdu")
        z = snapshot_amplitudes(inv, run_batch(h, rho, tm, 2000, seed + n))
        # eigenframe rho-hat_k: V cancels in each Tr(rho-hat_k rho-hat_k+half)
        rhos = apply_n_inverse(inv, snapshot_sigmas(z))
        half = len(rhos) // 2
        pair_vals = np.einsum("kmn,knm->k", rhos[:half], rhos[half:2 * half]).real
        rows.append((n, approx, empirical_variance(pair_vals)))
    return "n,approx_nonlinear,empirical_pair_variance", rows


@main.command()
@click.option("--figure", "figure_key", required=True,
              type=click.Choice(sorted(FIGURES)))
@click.option("--seed", type=click.IntRange(min=0), default=7)
@click.option("--out", "out_path", default=None, type=click.Path())
def reproduce(figure_key, seed, out_path):
    """Emit the desk-scale data series behind a benchmark figure."""
    with _require_writable([out_path] if out_path else []):
        header, rows = FIGURES[figure_key](seed)
        lines = [f"# figure={figure_key} seed={seed} scale=desk", header]
        _emit(out_path, lines + [_csv_row(*r) for r in rows])


if __name__ == "__main__":
    main()
