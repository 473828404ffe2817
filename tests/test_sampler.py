import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from born import exp_born_rows
from snapfiles import HEADER_EDITS, b64, edit_file, rewrite_phase_rows
from hamshadow import sampler
from hamshadow.models import gue_hamiltonian, random_pure_state
from hamshadow.qmatrix import hermitian_spectral
from hamshadow.sampler import (
    CHUNK_ENTRIES,
    Snapshot,
    SnapshotSet,
    TimeModel,
    _evolution_draws,
    _factor_state,
    _unit_phasors,
    born_probabilities,
    load_snapshots,
    run_batch,
    save_snapshots,
    substream,
    write_manifest,
)
from hamshadow.shadowmap import hamiltonian_fingerprint

# ---------------------------------------------------------------------------
# Oracle: each shot drawn from its own numpy Generator, substream(seed, i).
# run_batch computes these streams in closed form and must reproduce them
# bit for bit.
# ---------------------------------------------------------------------------


def draw_evolution(dim, tm, rng):
    """A shot's time (uniform-window) or phase vector (otherwise)."""
    if tm.kind == "uniform-window":
        return float(rng.uniform(tm.t_min, tm.t_max))
    if tm.kind == "design":
        m = rng.integers(0, tm.k + 1, size=dim)
        return 2 * np.pi * m / (tm.k + 1)
    return rng.uniform(0, 2 * np.pi, size=dim)


def sample_snapshot(h, rho, tm, rng):
    """One shot of run_batch, drawn from its own Generator."""
    x = draw_evolution(h.dim, tm, rng)
    window = tm.kind == "uniform-window"
    v = h.eigenbasis
    p = born_probabilities(h, v.conj().T @ rho @ v, -h.energies * x if window else x)
    b = int(rng.choice(len(p), p=p))
    return Snapshot(b, time=x) if window else Snapshot(b, phases=x)


def random_density(d, seed=0, rank=None):
    g = np.random.default_rng(seed)
    a = g.normal(size=(d, rank or d)) + 1j * g.normal(size=(d, rank or d))
    m = a @ a.conj().T
    return m / np.trace(m)


def einsum_born(h, rho_h, phases):
    """Per-row reference: the quadratic form of rho_H, clipped and normalised."""
    amps = h.eigenbasis * np.exp(1j * phases)
    p = np.einsum("bm,mn,bn->b", amps, rho_h, amps.conj()).real
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def shots_row(s):
    return s.bitstring, s.time, None if s.phases is None else s.phases.tobytes()


def shots(snaps):
    return [shots_row(s) for s in snaps.snapshots]


class TestSubstream:
    def test_deterministic_and_independent(self):
        a = substream(5, 0).normal(size=4)
        b = substream(5, 0).normal(size=4)
        c = substream(5, 1).normal(size=4)
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    def test_nested_paths_distinct(self):
        a = substream(5, 0, 1).normal()
        b = substream(5, 1, 0).normal()
        assert a != b


SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 3]) | st.integers(0, 2**140)
WINDOW = TimeModel("uniform-window", t_min=0.5, t_max=22.0)
TIME_MODELS = [WINDOW, TimeModel("ideal-rdu"), TimeModel("design", k=1),
               TimeModel("design", k=2), TimeModel("design", k=3)]


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStream:
    """The vectorized streams against one numpy Generator per shot."""

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.lists(st.integers(0, 2**32 - 1), max_size=5),
           st.sampled_from(TIME_MODELS),
           st.lists(st.integers(1, 9), min_size=1, max_size=3))
    def test_draws_equal_substream(self, seed, shots, tm, calls):
        shots = [0, *shots]
        if tm.kind == "uniform-window":
            calls = [1] * sum(calls)
        x, u = _evolution_draws(seed, np.array(shots, dtype=np.uint64), tm, sum(calls))
        for j, i in enumerate(shots):
            rng = substream(seed, i)
            want = np.concatenate([np.atleast_1d(draw_evolution(c, tm, rng))
                                   for c in calls])
            assert same_bytes(x[j], want)
            assert u[j] == rng.random()

    @settings(max_examples=25, deadline=None)
    @given(SEEDS, st.sampled_from(TIME_MODELS))
    def test_batch_equals_per_shot_generators(self, seed, tm):
        h = gue_hamiltonian(5, 60)
        rho = random_density(5, 61, 2)
        batch = run_batch(h, rho, tm, 25, seed)
        assert shots(batch) == [shots_row(sample_snapshot(h, rho, tm, substream(seed, i)))
                                for i in range(25)]

    def test_lemire_rejects_only_a_zero_draw_of_three(self):
        draws = np.array([0, 1, 2, 2**31, 2**32 - 1], dtype=np.uint64)
        for span in (2, 3, 4):
            leftover = draws * span & 0xFFFFFFFF
            assert sampler._lemire_rejects(leftover, span).tolist() == \
                [span == 3, False, False, False, False]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_redraw_keeps_bytes(self, monkeypatch, tmp_path, k):
        # a rejected draw is a 2^-32 event per word, so force the redraw
        # path on every shot with bit 16 of its first leftover word set
        tm = TimeModel("design", k=k)
        h = gue_hamiltonian(8, 62)

        def file_bytes(tag):
            save_snapshots(tmp_path / f"{tag}.txt",
                           run_batch(h, random_density(8, 65), tm, 90, 66))
            return (tmp_path / f"{tag}.txt").read_bytes()

        before = file_bytes("before")
        redrawn = []

        def counted_substream(seed, *path):
            redrawn.append(path)
            return substream(seed, *path)

        monkeypatch.setattr(sampler, "_lemire_rejects",
                            lambda leftover, span: (leftover[:, :1] >> 16 & 1) == 1)
        monkeypatch.setattr(sampler, "substream", counted_substream)
        assert file_bytes("after") == before
        assert 40 < len(redrawn) < 140

    def test_negative_seed_refused(self):
        h = gue_hamiltonian(2, 69)
        tm = TimeModel("ideal-rdu")
        with pytest.raises(ValueError, match="expected non-negative integer"):
            substream(-1, 0)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            run_batch(h, np.eye(2) / 2, tm, 3, seed=-1)
        for seed in (1.5, 2.0, "3"):
            with pytest.raises(TypeError):
                run_batch(h, np.eye(2) / 2, tm, 3, seed=seed)

    def test_shot_index_beyond_one_word_refused(self):
        # refused before any shot is drawn: 2**32 shots would not fit in memory
        h = gue_hamiltonian(2, 69)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            run_batch(h, np.eye(2) / 2, TimeModel("ideal-rdu"), 2**32, seed=1)


class TestTimeModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeModel("uniform-window", t_min=2.0, t_max=1.0)
        with pytest.raises(ValueError):
            TimeModel("nope")
        with pytest.raises(ValueError):
            TimeModel("design", k=7)

    @pytest.mark.parametrize("t_min,t_max", [(2.0, np.inf), (-np.inf, 1.0),
                                             (np.nan, 1.0)])
    def test_non_finite_window_refused(self, t_min, t_max):
        # an infinite t_max reached Generator.uniform, an OverflowError
        with pytest.raises(ValueError, match="finite"):
            TimeModel("uniform-window", t_min=t_min, t_max=t_max)

    def test_describe_parse_roundtrip(self):
        for tm in [TimeModel("ideal-rdu"),
                   TimeModel("design", k=3),
                   TimeModel("uniform-window", t_min=0.5, t_max=2.5)]:
            assert TimeModel.parse(tm.describe()) == tm

    @pytest.mark.parametrize("text", [
        "ideal-rdu k=5", "design k=2 k=3", "design k", "design 2", "design",
        "uniform-window t_min=1.0 t_max=2.0 t_max=3.0",
        "uniform-window t_max=2.0 t_min=1.0", "uniform-window t_min=1.0",
        "design  k=2", "ideal-rdu ", "design k=2.0", "", "nope", "design k=+2",
        "uniform-window t_min=1 t_max=2.0", "uniform-window t_min=1.0 t_max=2e1",
        "uniform-window t_min=0_1.0 t_max=2.0"])
    def test_parse_reads_only_what_describe_writes(self, text):
        # "ideal-rdu k=5" parsed as ideal-rdu, and a repeated key took its
        # last value
        with pytest.raises(ValueError):
            TimeModel.parse(text)

    def test_fields_as_describe_writes_them(self):
        # describe() leaves the unread fields out, so a saved and reloaded
        # model was unequal to the one that drew the snapshots
        assert TimeModel("ideal-rdu", t_min=1.0, t_max=2.0, k=3) == \
            TimeModel("ideal-rdu")
        assert TimeModel("design", t_min=1.0, t_max=2.0, k=3) == \
            TimeModel("design", k=3)
        assert TimeModel("uniform-window", t_min=1.0, t_max=2.0, k=3).k == 2
        # "design k=2.0" and "t_min=np.float64(0.5)" did not parse back
        for tm in [TimeModel("design", k=2.0), TimeModel("design", k=True),
                   TimeModel("uniform-window", t_min=np.float64(0.5), t_max=2)]:
            assert TimeModel.parse(tm.describe()) == tm
            assert type(tm.k) is int and type(tm.t_min) is float


class TestSampling:
    def test_stationary_state_always_zero(self):
        h = hermitian_spectral(np.diag([0.0, 1.0, 2.7, 3.9]))
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        snaps = run_batch(h, rho, TimeModel("uniform-window", t_min=0, t_max=5),
                          200, seed=1)
        assert all(s.bitstring == 0 for s in snaps.snapshots)

    def test_maximally_mixed_uniform(self):
        h = gue_hamiltonian(4, 2)
        rho = np.eye(4) / 4
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), 10000, seed=3)
        counts = np.bincount([s.bitstring for s in snaps.snapshots], minlength=4)
        assert chisquare(counts).pvalue > 0.001

    def test_empirical_matches_mixed_phase_born_marginal(self):
        # with iid phases the bitstring marginal is V^sq applied to the
        # eigenframe populations, an exact closed form
        h = gue_hamiltonian(4, 4)
        rho = random_density(4, 5)
        v = h.eigenbasis
        pops = np.real(np.diag(v.conj().T @ rho @ v))
        expected = (np.abs(v) ** 2) @ pops
        num = 100000
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), num, seed=6)
        counts = np.bincount([s.bitstring for s in snaps.snapshots], minlength=4)
        freq = counts / num
        se = np.sqrt(expected * (1 - expected) / num)
        assert np.all(np.abs(freq - expected) <= 4 * se)

    def test_chi_square_against_marginal(self):
        h = gue_hamiltonian(4, 7)
        rho = random_density(4, 8)
        v = h.eigenbasis
        pops = np.real(np.diag(v.conj().T @ rho @ v))
        expected = (np.abs(v) ** 2) @ pops
        num = 10000
        snaps = run_batch(h, rho, TimeModel("ideal-rdu"), num, seed=9)
        counts = np.bincount([s.bitstring for s in snaps.snapshots], minlength=4)
        assert chisquare(counts, expected * num).pvalue > 0.001

    def test_batch_determinism(self):
        h = gue_hamiltonian(4, 10)
        rho = random_density(4, 11)
        tm = TimeModel("uniform-window", t_min=0.0, t_max=3.0)
        a = run_batch(h, rho, tm, 50, seed=12)
        b = run_batch(h, rho, tm, 50, seed=12)
        assert [(s.bitstring, s.time) for s in a.snapshots] == \
            [(s.bitstring, s.time) for s in b.snapshots]
        c = run_batch(h, rho, tm, 50, seed=13)
        assert [(s.bitstring, s.time) for s in a.snapshots] != \
            [(s.bitstring, s.time) for s in c.snapshots]

    def test_batch_prefix_property(self):
        # per-shot substreams: a longer run extends a shorter one
        h = gue_hamiltonian(4, 10)
        rho = random_density(4, 11)
        tm = TimeModel("ideal-rdu")
        a = run_batch(h, rho, tm, 20, seed=14)
        b = run_batch(h, rho, tm, 40, seed=14)
        assert [s.bitstring for s in a.snapshots] == \
            [s.bitstring for s in b.snapshots[:20]]

    def test_sample_snapshot_draws_from_model(self):
        h = gue_hamiltonian(2, 15)
        rho = random_density(2, 16)
        times = run_batch(h, rho, TimeModel("uniform-window", t_min=1, t_max=2),
                          50, seed=17).times
        assert np.all((1 <= times) & (times <= 2))
        phases = run_batch(h, rho, TimeModel("design", k=2), 50, seed=17).phases
        grid = 2 * np.pi * np.arange(3) / 3
        assert np.all(np.isin(np.round(phases, 12), np.round(grid, 12)))

    def test_corrupted_state_rejected(self):
        h = gue_hamiltonian(2, 18)
        with pytest.raises(ValueError, match="corrupted"):
            born_probabilities(h, np.diag([0.7, 0.7]).astype(complex),
                               np.zeros(2))
        with pytest.raises(ValueError, match="corrupted"):
            # rank 0 after factoring: no eigenpair survives
            born_probabilities(h, np.zeros((2, 2)), np.zeros(2))

    def test_state_dimension_mismatch(self):
        h = gue_hamiltonian(2, 27)
        with pytest.raises(ValueError, match=r"shape \(4, 4\).* dimension 2"):
            run_batch(h, np.eye(4) / 4, TimeModel("ideal-rdu"), 3, seed=28)

    def test_non_hermitian_state_rejected(self):
        h = gue_hamiltonian(2, 18)
        rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            born_probabilities(h, rho, np.zeros(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            run_batch(h, rho, TimeModel("ideal-rdu"), 3, seed=1)

    @pytest.mark.parametrize("rank", [1, 2, 8])
    def test_batched_born_matches_einsum(self, rank):
        h = gue_hamiltonian(8, 50)
        v = h.eigenbasis
        rho_h = v.conj().T @ random_density(8, 51, rank) @ v
        assert len(_factor_state(rho_h)[0]) == rank
        phases = np.random.default_rng(52).uniform(0, 2 * np.pi, size=(40, 8))
        batch = born_probabilities(h, rho_h, phases)
        assert batch.shape == (40, 8)
        for phi, p in zip(phases, batch):
            np.testing.assert_allclose(p, einsum_born(h, rho_h, phi),
                                       rtol=0, atol=1e-12)
        np.testing.assert_array_equal(born_probabilities(h, rho_h, phases[3]),
                                      born_probabilities(h, rho_h, phases[3:4])[0])

    def test_prefix_property_across_chunks(self):
        # a full-rank d = 16 state puts 64 shots in each chunk, so 100 and
        # 150 shots end in different chunks
        assert CHUNK_ENTRIES // (16 * 16) == 64
        h = gue_hamiltonian(16, 53)
        rho = random_density(16, 54)
        for tm in (TimeModel("ideal-rdu"),
                   TimeModel("uniform-window", t_min=0.0, t_max=4.0)):
            long = run_batch(h, rho, tm, 150, seed=55)
            short = run_batch(h, rho, tm, 100, seed=55)
            assert shots(long)[:100] == shots(short)

    @pytest.mark.parametrize("entries", [1, 40, 300])
    def test_draw_blocks_and_born_chunks_do_not_change_batch(self, monkeypatch, entries):
        # at 40 entries a full-rank d = 8 state has one shot per Born chunk
        # and four per draw block, so both partitions cut the batch
        h = gue_hamiltonian(8, 59)
        rho = random_density(8, 60)
        for tm in TIME_MODELS:
            want = shots(run_batch(h, rho, tm, 30, seed=63))
            with monkeypatch.context() as m:
                m.setattr(sampler, "CHUNK_ENTRIES", entries)
                got = shots(run_batch(h, rho, tm, 30, seed=63))
            assert got == want

    def test_sample_snapshot_is_batch_shot(self):
        h = gue_hamiltonian(8, 56)
        rho = random_density(8, 57, 3)
        for tm in TIME_MODELS:
            batch = run_batch(h, rho, tm, 70, seed=58)
            for i in (0, 33, 69):
                s = sample_snapshot(h, rho, tm, substream(58, i))
                assert s.bitstring == batch.snapshots[i].bitstring
                assert s.time == batch.snapshots[i].time
                if s.phases is not None:
                    np.testing.assert_array_equal(s.phases,
                                                  batch.snapshots[i].phases)


class TestPhasorKernel:
    """_unit_phasors and the row-ordered product against np.exp and the
    (d, d) @ (d, K r) kernel of tests/born.py."""

    def test_unit_phasors_match_exp(self):
        rng = np.random.default_rng(70)
        step = 2 * np.pi / 256
        edges = np.arange(-2000, 2001) * step / 2  # table nodes and midpoints
        for phi in (rng.uniform(-2 * np.pi, 2 * np.pi, 200_000),
                    rng.uniform(-1e5, 1e5, 200_000), edges,
                    np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
                    np.array([1e5, -1e5, 5e-324, -1e-300, np.pi, -np.pi])):
            err = np.abs(_unit_phasors(phi) - np.exp(1j * phi)).max()
            assert err <= 2e-15

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e5, 1e5))
    def test_unit_phasor_of_any_phase(self, phi):
        assert abs(_unit_phasors(np.array([phi]))[0] - np.exp(1j * phi)) <= 2e-15

    def test_zero_phase_is_exactly_one(self):
        out = _unit_phasors(np.array([[0.0, -0.0], [0.0, 0.0]]))
        assert out.dtype == complex and out.shape == (2, 2)
        assert np.all(out.real == 1.0) and np.all(out.imag == 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phase_refused_without_warning(self, bad):
        h = gue_hamiltonian(4, 71)
        v = h.eigenbasis
        rho_h = v.conj().T @ random_density(4, 72) @ v
        phases = np.zeros((3, 4))
        phases[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Born distribution sums to nan"):
                born_probabilities(h, rho_h, phases)
            with pytest.raises(ValueError, match="Born distribution sums to nan"):
                born_probabilities(h, rho_h, phases[1])

    @pytest.mark.parametrize("rank", [1, 3, 16])
    def test_probabilities_match_exp_kernel(self, rank):
        h = gue_hamiltonian(16, 73)
        v = h.eigenbasis
        rho_h = v.conj().T @ random_density(16, 74, rank) @ v
        phases = np.random.default_rng(75).uniform(-300, 300, size=(200, 16))
        np.testing.assert_allclose(born_probabilities(h, rho_h, phases),
                                   exp_born_rows(v, *_factor_state(rho_h), phases),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [4, 16])
    @pytest.mark.parametrize("pure", [True, False])
    @pytest.mark.parametrize("tm", [
        TimeModel("ideal-rdu"),
        TimeModel("uniform-window", t_min=0.5, t_max=3.0),
        TimeModel("uniform-window", t_min=2.0, t_max=22.0),
        TimeModel("design", k=2)], ids=lambda tm: tm.describe())
    def test_batch_equals_exp_oracle(self, tm, d, pure):
        # each shot drawn from its own Generator, its distribution from the
        # np.exp kernel, its outcome by Generator.choice; 80 shots of a
        # full-rank d = 16 state span two Born chunks
        h = gue_hamiltonian(d, 76 + d)
        v = h.eigenbasis
        window = tm.kind == "uniform-window"
        for seed in range(50):
            rho = (random_pure_state(d, seed) if pure
                   else random_density(d, seed))
            w, l = _factor_state(v.conj().T @ rho @ v)
            rngs = [substream(seed, i) for i in range(80)]
            x = np.array([draw_evolution(d, tm, rng) for rng in rngs])
            p = exp_born_rows(v, w, l, -np.outer(x, h.energies) if window else x)
            bits = [int(rng.choice(d, p=row)) for rng, row in zip(rngs, p)]
            batch = run_batch(h, rho, tm, 80, seed)
            assert batch.bits.tolist() == bits
            assert same_bytes(batch.times if window else batch.phases, x)


def recording(columns) -> TimeModel:
    """A time model whose records are the given times or phases."""
    return (TimeModel("uniform-window", t_min=0.0, t_max=1.0)
            if "times" in columns else TimeModel("ideal-rdu"))


class TestSnapshotSet:
    @pytest.mark.parametrize("bits, columns", [
        ([0, 1, 2], {}),
        ([0, 1, 2], {"times": np.zeros(3), "phases": np.zeros((3, 2))}),
        ([0, 1, 2], {"times": np.zeros(2)}),
        ([0, 1, 2], {"phases": np.zeros(3)}),
        ([0, 1, 2], {"phases": np.zeros((2, 2))}),
        ([0, -1, 2], {"times": np.zeros(3)}),
        # empty: a file of no rows, or rows of no phases, cannot be read back
        ([], {"times": np.zeros(0)}),
        ([], {"phases": np.zeros((0, 2))}),
        ([0, 1], {"phases": np.zeros((2, 0))}),
    ])
    def test_refuses_bad_columns(self, bits, columns):
        with pytest.raises(ValueError):
            SnapshotSet(bits, "", 0, recording(columns), **columns)

    @pytest.mark.parametrize("tm, columns", [
        (TimeModel("uniform-window", t_min=0.0, t_max=1.0),
         {"phases": np.zeros((2, 2))}),
        (TimeModel("ideal-rdu"), {"times": np.zeros(2)}),
        (TimeModel("design", k=2), {"times": np.zeros(2)}),
    ], ids=["window-phases", "ideal-times", "design-times"])
    def test_column_is_the_time_models(self, tm, columns):
        # a window set of phases was saved, and load_snapshots then refused
        # its file at the first phases= row
        with pytest.raises(ValueError, match=f"time_model={tm.describe()} records"):
            SnapshotSet([0, 1], "ab", 0, tm, **columns)

    @pytest.mark.parametrize("fingerprint", ["a b", "ab\n", " ab"])
    def test_fingerprint_without_whitespace(self, fingerprint):
        # the header line would break or lose it
        with pytest.raises(ValueError, match="whitespace"):
            SnapshotSet([0], fingerprint, 0, TimeModel("ideal-rdu"),
                        phases=np.zeros((1, 2)))

    @pytest.mark.parametrize("fingerprint", ["\u00e9", "a\x00b", "ab\x7f"])
    def test_fingerprint_is_printable_ascii(self, fingerprint):
        # a snapshot file is ASCII
        with pytest.raises(ValueError, match="printable ASCII"):
            SnapshotSet([0], fingerprint, 0, TimeModel("ideal-rdu"),
                        phases=np.zeros((1, 2)))

    @pytest.mark.parametrize("time", [0.4, 3.5, np.nan, np.inf, -np.inf])
    def test_times_lie_in_the_window(self, time):
        # a time outside the window, or nan, made every estimate nan
        tm = TimeModel("uniform-window", t_min=0.5, t_max=3.0)
        with pytest.raises(ValueError, match=r"outside the window \[0.5, 3.0\] us"):
            SnapshotSet([0, 1], "ab", 0, tm, times=[1.0, time])
        SnapshotSet([0, 1], "ab", 0, tm, times=[0.5, 3.0])

    def test_integer_seed(self):
        # a seed of 1.5 was saved as "# seed=1.5", which int() then refused
        phases = np.zeros((1, 2))
        with pytest.raises(TypeError):
            SnapshotSet([0], "ab", 1.5, TimeModel("ideal-rdu"), phases=phases)
        seed = SnapshotSet([0], "ab", np.int64(3), TimeModel("ideal-rdu"),
                           phases=phases).seed
        assert seed == 3 and type(seed) is int

    @pytest.mark.parametrize("column", ["times", "phases"])
    def test_columns_are_read_only_copies(self, column):
        bits = np.array([0, 1, 2])
        evolution = np.zeros(3) if column == "times" else np.zeros((3, 4))
        snaps = SnapshotSet(bits, "", 0, recording([column]),
                            **{column: evolution})
        # a later write by the caller reaches neither column nor its checks
        bits[0] = -1
        evolution[0] = 5.0
        assert snaps.bits.tolist() == [0, 1, 2]
        assert not np.any(getattr(snaps, column))
        for col in (snaps.bits, getattr(snaps, column)):
            with pytest.raises(ValueError):
                col[0] = 1

    def test_read_only_owned_column_is_kept(self):
        # the columns run_batch and load_snapshots build are kept without a
        # copy; a read-only view of another array is still copied
        bits = np.array([0, 1])
        phases = np.zeros((2, 3))
        for a in (bits, phases):
            a.setflags(write=False)
        snaps = SnapshotSet(bits, "", 0, TimeModel("ideal-rdu"), phases=phases)
        assert snaps.bits is bits and snaps.phases is phases
        view = phases[:, :2]
        assert SnapshotSet(bits, "", 0, TimeModel("ideal-rdu"),
                           phases=view).phases is not view

    def test_rows_view_the_columns(self):
        h = gue_hamiltonian(4, 37)
        for tm in (TimeModel("ideal-rdu"),
                   TimeModel("uniform-window", t_min=0.0, t_max=3.0)):
            snaps = run_batch(h, np.eye(4) / 4, tm, 12, seed=38)
            rows = snaps.snapshots
            col = snaps.times if snaps.times is not None else snaps.phases
            assert col.flags.c_contiguous
            assert not (col.flags.writeable or snaps.bits.flags.writeable)
            assert [s.bitstring for s in rows] == snaps.bits.tolist()
            assert all(type(s.bitstring) is int for s in rows)
            if snaps.times is not None:
                assert [s.time for s in rows] == snaps.times.tolist()
                assert all(type(s.time) is float and s.phases is None for s in rows)
            else:
                assert all(s.time is None for s in rows)
                np.testing.assert_array_equal([s.phases for s in rows], snaps.phases)


def two_phase_batch() -> SnapshotSet:
    """Ten ideal-phase snapshots of d = 2: rows on lines 6 to 15 of a file."""
    return run_batch(gue_hamiltonian(2, 33), np.eye(2) / 2, TimeModel("ideal-rdu"),
                     10, seed=34)


class TestSerialization:
    def test_roundtrip_time_snapshots(self, tmp_path):
        h = gue_hamiltonian(4, 30)
        rho = random_density(4, 31)
        tm = TimeModel("uniform-window", t_min=0.0, t_max=3.0)
        snaps = run_batch(h, rho, tm, 25, seed=32)
        p = tmp_path / "snaps.txt"
        save_snapshots(p, snaps)
        loaded = load_snapshots(p)
        assert loaded.hamiltonian_fingerprint == hamiltonian_fingerprint(h)
        assert loaded.seed == 32
        assert loaded.time_model == tm
        assert [s.bitstring for s in loaded.snapshots] == \
            [s.bitstring for s in snaps.snapshots]
        np.testing.assert_allclose([s.time for s in loaded.snapshots],
                                   [s.time for s in snaps.snapshots])

    def test_roundtrip_phase_snapshots(self, tmp_path):
        h = gue_hamiltonian(2, 33)
        snaps = run_batch(h, np.eye(2) / 2, TimeModel("ideal-rdu"), 10, seed=34)
        p = tmp_path / "snaps.txt"
        save_snapshots(p, snaps)
        loaded = load_snapshots(p)
        for a, b in zip(loaded.snapshots, snaps.snapshots):
            np.testing.assert_allclose(a.phases, b.phases)

    @pytest.mark.parametrize("old, new, message", [
        ("# shots=10", "# shots=11", "shots=11 but the file holds 10 rows"),
        ("b=", "c=", "line 6: malformed snapshot row"),
        ("# time_model=ideal-rdu", "# time_model=uniform-window t_min=1.0",
         "bad time_model header"),
        # a well-formed t_us= row among phases= rows
        ("phases=", "t_us=1.0 b=1\nphases=",
         "line 6: t_us= row, but time_model=ideal-rdu records phases="),
        # three phases on the first row, two on the others
        ("phases=", "phases=0.5,", "line 7: 2 phases, but line 6 holds 3"),
        ("# time_model=ideal-rdu",
         "# time_model=uniform-window t_min=1.0 t_max=2.0",
         "line 6: phases= row, but time_model=uniform-window"),
        # the header picks the inverse map, so a file without one was taken
        # as ideal-rdu and inverted with the ideal map whatever its data
        ("# time_model=ideal-rdu\n", "", "snaps.txt: no time_model header"),
        ("# shots=10\n", "# shots=0\n", "shots=0 but the file holds 10 rows"),
        ("# shots=10\n", "# shots=9\n", "shots=9 but the file holds 10 rows"),
        # a column of 10^13 rows would not fit in memory
        ("# shots=10\n", "# shots=10000000000000\n",
         "shots=10000000000000 but the file holds 10 rows"),
    ])
    def test_malformed_file_rejected(self, tmp_path, old, new, message):
        # the edit is made on the v1 form of the file, whose phase rows are
        # decimal; the same file with its phase rows in v2 base64 is refused
        # with the same message
        p = tmp_path / "snaps.txt"
        save_snapshots(p, two_phase_batch())
        rewrite_phase_rows(p, "v1")
        p.write_text(p.read_text().replace(old, new, 1))
        for version in ("v1", "v2"):
            rewrite_phase_rows(p, version)
            with pytest.raises(ValueError, match=message):
                load_snapshots(p)

    def test_header_only_file_rejected(self, tmp_path):
        h = gue_hamiltonian(2, 33)
        snaps = run_batch(h, np.eye(2) / 2, TimeModel("ideal-rdu"), 10, seed=34)
        p = tmp_path / "snaps.txt"
        save_snapshots(p, snaps)
        header = [line for line in p.read_text().splitlines(keepends=True)
                  if line.startswith("#")]
        p.write_text("".join(header).replace("# shots=10", "# shots=0"))
        with pytest.raises(ValueError, match="snaps.txt: no snapshot rows"):
            load_snapshots(p)

    def test_manifest_shares_the_header_fields(self, tmp_path):
        snaps = run_batch(gue_hamiltonian(2, 35), np.eye(2) / 2,
                          TimeModel("uniform-window", t_min=0.5, t_max=3.0),
                          4, seed=36)
        save_snapshots(tmp_path / "snaps.txt", snaps)
        write_manifest(tmp_path / "manifest.txt", snaps)
        header = (tmp_path / "snaps.txt").read_text().splitlines()[1:5]
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()[1:5]
        assert [line.removeprefix("# ") for line in header] == manifest
        assert [line.split("=")[0] for line in manifest] == \
            ["fingerprint", "seed", "time_model", "shots"]

    def test_manifest_contents(self, tmp_path):
        h = gue_hamiltonian(2, 35)
        snaps = run_batch(h, np.eye(2) / 2, TimeModel("ideal-rdu"), 4, seed=36)
        p = tmp_path / "manifest.txt"
        write_manifest(p, snaps, {"note": "x"})
        text = p.read_text()
        assert f"fingerprint={hamiltonian_fingerprint(h)}" in text
        assert "seed=36" in text
        assert "shots=4" in text
        assert "note=x" in text
        assert "\nrng=philox seed-sequence substream per shot index\n" in text


def edit_phase_row(path, lineno, payload):
    """Put payload in place of the phase payload on line lineno."""
    lines = path.read_text().splitlines(keepends=True)
    assert lines[lineno - 1].startswith("phases=")
    lines[lineno - 1] = f"phases={payload} {lines[lineno - 1].split(' ', 1)[1]}"
    path.write_text("".join(lines))


def row_payload(path, lineno) -> str:
    return path.read_text().splitlines()[lineno - 1].split()[0][len("phases="):]


class TestSnapshotFileV2:
    def test_phase_rows_are_base64_doubles(self, tmp_path):
        snaps = two_phase_batch()
        p = tmp_path / "snaps.txt"
        save_snapshots(p, snaps)
        lines = p.read_text().splitlines()
        assert lines[0] == "# hamshadow snapshots v2"
        assert lines[5:] == [f"phases={b64(ph)} b={b}"
                             for ph, b in zip(snaps.phases, snaps.bits.tolist())]

    def test_round_trip_is_bit_exact(self, tmp_path):
        # -0.0, the least subnormal, 2 pi - ulp and two NaNs, the second with
        # the sign bit and a payload, which a repr written and read back as
        # float("nan") would lose
        nans = np.array([0x7FF8000000000000, 0xFFF8000000001234],
                        dtype=np.uint64).view(float)
        phases = np.array([[-0.0, 5e-324, np.nextafter(2 * np.pi, 0), nans[0]],
                           [nans[1], 0.0, -np.inf, 1e308]])
        snaps = SnapshotSet([1, 3], "ab", 7, TimeModel("ideal-rdu"), phases=phases)
        p = tmp_path / "snaps.txt"
        save_snapshots(p, snaps)
        loaded = load_snapshots(p)
        assert loaded.phases.view(np.uint64).tolist() == \
            phases.view(np.uint64).tolist()
        assert loaded.bits.tolist() == [1, 3]

    @pytest.mark.parametrize("edit, message", [
        # "-" belongs to the URL-safe alphabet, not the standard one
        (lambda payload: "-" + payload[1:], "line 7: malformed snapshot row"),
        (lambda payload: payload[:-1], "line 7: malformed snapshot row"),
        (lambda payload: payload + "=", "line 7: malformed snapshot row"),
        (lambda payload: b64([0.5])[:-1] + "A", "line 7: malformed snapshot row"),
        (lambda payload: "", "line 7: malformed snapshot row"),
        (lambda payload: b64([0.5, 1.5, 2.5]), "line 7: 3 phases, but line 6 holds 2"),
    ], ids=["non-alphabet", "bad-padding", "extra-padding", "partial-double",
            "empty", "phase-count"])
    def test_bad_payload_rejected(self, tmp_path, edit, message):
        p = tmp_path / "snaps.txt"
        save_snapshots(p, two_phase_batch())
        edit_phase_row(p, 7, edit(row_payload(p, 7)))
        with pytest.raises(ValueError, match=message):
            load_snapshots(p)

    @pytest.mark.parametrize("tm", [TimeModel("ideal-rdu"), TimeModel("design", k=3),
                                    TimeModel("uniform-window", t_min=0.5, t_max=3.0)],
                             ids=lambda tm: tm.kind)
    def test_shorter_run_is_a_prefix(self, tmp_path, tm):
        h, rho = gue_hamiltonian(4, 70), random_density(4, 71)
        rows = {}
        for k in (20, 50):
            save_snapshots(tmp_path / f"{k}.txt", run_batch(h, rho, tm, k, seed=72))
            rows[k] = (tmp_path / f"{k}.txt").read_bytes().splitlines(keepends=True)[5:]
        assert len(rows[20]) == 20
        assert rows[50][:20] == rows[20]

    @pytest.mark.parametrize("pattern, replacement, message", HEADER_EDITS)
    def test_incomplete_header_rejected(self, tmp_path, pattern, replacement,
                                        message):
        # a missing seed was read as 0 and a missing fingerprint as ""
        p = tmp_path / "snaps.txt"
        save_snapshots(p, two_phase_batch())
        edit_file(p, pattern, replacement)
        with pytest.raises(ValueError, match=message):
            load_snapshots(p)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_reads_a_pipe(self, tmp_path):
        # a pipe reports size 0, which must not cap the rows that are kept
        snaps = two_phase_batch()
        save_snapshots(tmp_path / "snaps.txt", snaps)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=((tmp_path / "snaps.txt").read_bytes(),))
        writer.start()
        try:
            loaded = load_snapshots(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(loaded.phases, snaps.phases)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "snaps.txt"
        p.write_text("")
        with pytest.raises(ValueError, match="snaps.txt: no '# hamshadow snapshots"):
            load_snapshots(p)

    def test_header_line_after_rows_rejected(self, tmp_path):
        # the header is the first five lines
        p = tmp_path / "snaps.txt"
        save_snapshots(p, two_phase_batch())
        p.write_text(p.read_text() + "# seed=3\n")
        with pytest.raises(ValueError, match="line 16: malformed snapshot row"):
            load_snapshots(p)


def window_batch() -> SnapshotSet:
    """Ten snapshots on a [0.5, 3] us window: rows on lines 6 to 15 of a file."""
    return run_batch(gue_hamiltonian(2, 33), np.eye(2) / 2,
                     TimeModel("uniform-window", t_min=0.5, t_max=3.0), 10, seed=34)


BATCHES = {"phases": two_phase_batch, "window": window_batch}


class TestSnapshotGrammar:
    """A snapshot file is read by the grammar save_snapshots writes: the
    version line, the four header lines in order, then one row pattern, in
    ASCII with no other line or whitespace."""

    @pytest.mark.parametrize("batch, pattern, replacement, message", [
        ("phases", r"( b=[0-9]+)\n", r"\1 junk=1\n", "line 6: malformed snapshot row"),
        ("window", r"(t_us=\S+)", r"\1 phases=0.5", "line 6: malformed snapshot row"),
        ("phases", r"# seed=34\n", r"\g<0>\g<0>", "no time_model header on line 4"),
        ("phases", r"(# fingerprint=.*\n)(# seed=.*\n)", r"\2\1",
         "no fingerprint header on line 2"),
        ("phases", r"# seed=34\n", r"\g<0># note=x\n", "no time_model header on line 4"),
        ("phases", r"# shots=10\n", r"\g<0># note=x\n", "line 6: malformed snapshot row"),
        ("phases", r"# seed=", "#seed=", "no seed header on line 3"),
        ("phases", r"# shots=10\n", r"\g<0>\n", "line 6: malformed snapshot row"),
        ("window", r"( b=[0-9]+\n)", r"\1\n", "line 7: malformed snapshot row"),
        ("phases", r"\n\Z", "\n\n", "line 16: malformed snapshot row"),
        ("phases", r"( b=[0-9]+)\n", r"\1 \n", "line 6: malformed snapshot row"),
        ("window", r" b=", "\tb=", "line 6: malformed snapshot row"),
        ("phases", r"( b=[0-9]+)\n", r"\1\r\n", "line 6: malformed snapshot row"),
        ("phases", r"# seed=34", "# seed=34 ", "bad seed header '34 ': not an integer"),
        # int() reads the Arabic-Indic digit one as 1
        ("window", r" b=[0-9]+\n", " b=\u0661\n", "line 6: malformed snapshot row"),
        ("phases", r"(# fingerprint=\w+)", "\\1\u00e9", "bad fingerprint header"),
        # a file cut inside its last row
        ("window", r"\n\Z", "", "line 15: malformed snapshot row"),
    ], ids=["extra-field", "both-kinds", "duplicate-header", "swapped-headers",
            "note-in-header", "note-after-header", "unspaced-header",
            "blank-after-header", "blank-between-rows", "blank-at-end",
            "trailing-space", "tab", "carriage-return", "header-trailing-space",
            "non-ascii-digit", "non-ascii-fingerprint", "no-final-newline"])
    def test_off_grammar_file_rejected(self, tmp_path, batch, pattern, replacement,
                                       message):
        # each of these files loaded before
        p = tmp_path / "snaps.txt"
        for version in ("v1", "v2"):
            save_snapshots(p, BATCHES[batch]())
            rewrite_phase_rows(p, version)
            edit_file(p, pattern, replacement)
            with pytest.raises(ValueError, match=f"snaps.txt: {message}"):
                load_snapshots(p)

    @pytest.mark.parametrize("time", ["1000.0", "nan", "inf", "0.4"])
    def test_time_outside_the_window_rejected(self, tmp_path, time):
        # a t_us=1000.0 or t_us=nan row made every estimate nan
        p = tmp_path / "snaps.txt"
        save_snapshots(p, window_batch())
        edit_file(p, r"(\nt_us=\S+ b=[0-9]+\n)t_us=\S+", rf"\1t_us={time}")
        with pytest.raises(ValueError, match=rf"snaps.txt: line 7: t_us={time} lies "
                                             r"outside the window \[0.5, 3.0\] us"):
            load_snapshots(p)

    def test_outcome_beyond_64_bits_rejected(self, tmp_path):
        # numpy's int64 conversion raised an OverflowError
        p = tmp_path / "snaps.txt"
        save_snapshots(p, window_batch())
        edit_file(p, r" b=[0-9]+\n", f" b={2**63}\n")
        with pytest.raises(ValueError, match=f"snaps.txt: line 6: outcome b={2**63} "
                                             "exceeds 64 bits"):
            load_snapshots(p)
