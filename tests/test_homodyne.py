import collections
import json
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engines import homodyne_block

from qdecay import homodyne
from qdecay.cli import main
from qdecay.core import ModelParams, QubitState, derive_stream
from qdecay.homodyne import (
    DensityMatrix2,
    EnsembleAutocorrelation,
    NoiseModel,
    _initial_rho,
    apply_detection_exact,
    apply_detection_first_order,
    autocorrelation,
    back_action_increment,
    back_action_step,
    beamsplitter_mix,
    default_kick,
    homodyne_current,
    iter_homodyne_records,
    point_process_increments,
    run_homodyne_ensemble,
    run_homodyne_trajectory,
    signal_autocorrelation,
    white_noise_increments,
)

SQ2 = math.sqrt(2.0)
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
camp = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestBeamsplitter:
    def test_vacuum_port(self):
        out = beamsplitter_mix(1.0, 0.0)
        assert out.phi1 == pytest.approx(1 / SQ2)
        assert out.phi2 == pytest.approx(1 / SQ2)

    def test_destructive_port(self):
        out = beamsplitter_mix(1.0, 1.0)
        assert out.phi1 == pytest.approx(SQ2)
        assert out.phi2 == 0.0

    def test_complex_arithmetic_oracle(self):
        out = beamsplitter_mix(2.0, 1j)
        assert out.phi1 == pytest.approx((2 + 1j) / SQ2)
        assert out.phi2 == pytest.approx((2 - 1j) / SQ2)
        assert abs(out.phi1) ** 2 + abs(out.phi2) ** 2 == pytest.approx(5.0)

    def test_energy_conservation_bulk(self):
        # 1e4 random inputs conserve energy to 1e-12
        rng = np.random.default_rng(42)
        vals = rng.normal(size=(10_000, 4))
        for re_a, im_a, re_p, im_p in vals:
            alpha = complex(re_a, im_a)
            psi = complex(re_p, im_p)
            out = beamsplitter_mix(alpha, psi)
            total_in = abs(alpha) ** 2 + abs(psi) ** 2
            total_out = abs(out.phi1) ** 2 + abs(out.phi2) ** 2
            assert abs(total_out - total_in) <= 1e-12 * max(1.0, total_in)

    @given(camp, camp, camp, camp)
    def test_energy_conservation_property(self, ra, ia, rp, ip):
        alpha, psi = complex(ra, ia), complex(rp, ip)
        out = beamsplitter_mix(alpha, psi)
        assert abs(out.phi1) ** 2 + abs(out.phi2) ** 2 == pytest.approx(
            abs(alpha) ** 2 + abs(psi) ** 2, abs=1e-12
        )


class TestHomodyneCurrent:
    def test_pure_excited_no_dipole(self):
        for theta in (0.0, 0.7, math.pi / 2):
            assert homodyne_current(QubitState.excited(), 50.0, theta) == 0.0

    def test_amplified_superposition(self):
        s = QubitState.superposition(1.0, 1.0)
        assert homodyne_current(s, 100.0, 0.0) == pytest.approx(100.0)

    def test_orthogonal_quadrature(self):
        s = QubitState.superposition(1.0, 1.0)
        assert homodyne_current(s, 100.0, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


class TestDetectionMaps:
    def test_no_ground_amplitude_unchanged(self):
        amps = np.array([1.0, 0.0, 0.0], complex)
        assert np.allclose(apply_detection_exact(amps, 10.0), amps)
        assert np.allclose(apply_detection_first_order(amps, 10.0), amps)

    def test_pure_ground_unchanged_after_renormalization(self):
        amps = np.array([0.0, 1.0, 0.0], complex)
        out = apply_detection_exact(amps, 10.0)
        assert np.allclose(out, amps, atol=1e-15)

    def test_ground_amplitude_gain_first_order(self):
        amps = np.array([1 / SQ2, 1 / SQ2, 0.0], complex)
        alpha = 100.0
        r = amps[1].real / alpha
        exact = apply_detection_exact(amps, alpha)
        gain_exact = (exact[1] - amps[1]).real
        gain_first = r * (1 - abs(amps[1]) ** 2)
        assert abs(gain_exact - gain_first) < 10 * r**2

    def test_first_order_norm_deviation(self):
        amps = np.array([0.6, 0.5, math.sqrt(1 - 0.36 - 0.25)], complex)
        alpha = 500.0  # r = 1e-3
        out = apply_detection_first_order(amps, alpha)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-5

    @pytest.mark.parametrize("r", [1e-2, 1e-3])
    def test_exact_vs_first_order_within_r_squared(self, r):
        amps = np.array([0.6, 0.5, math.sqrt(1 - 0.36 - 0.25)], complex)
        alpha = amps[1].real / r
        diff = np.abs(
            apply_detection_exact(amps, alpha) - apply_detection_first_order(amps, alpha)
        )
        assert diff.max() < 10 * r**2

    def test_deviation_scales_as_r_squared(self):
        # log-log slope of ||exact - first order|| vs r is 2.0 +- 0.1
        amps = np.array([0.6, 0.5, math.sqrt(1 - 0.36 - 0.25)], complex)
        rs = np.array([1e-1, 1e-2, 1e-3])
        devs = []
        for r in rs:
            alpha = amps[1].real / r
            devs.append(
                np.abs(
                    apply_detection_exact(amps, alpha) - apply_detection_first_order(amps, alpha)
                ).max()
            )
        slope = np.polyfit(np.log(rs), np.log(devs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_complex_consistent_form_keeps_norm(self):
        amps = np.array([0.6, 0.5j, math.sqrt(1 - 0.36 - 0.25)], complex)
        out = apply_detection_first_order(amps, 1000.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-5

    def test_r_guard(self):
        amps = np.array([0.0, 1.0, 0.0], complex)
        with pytest.raises(ValueError, match="r too large"):
            apply_detection_first_order(amps, 2.0)

    def test_alpha_guard(self):
        with pytest.raises(ValueError, match="non-positive alpha"):
            apply_detection_exact(np.array([1.0, 0.0, 0.0], complex), 0.0)


def random_density(rng) -> DensityMatrix2:
    # random pure-or-mixed physical state
    ee = rng.random()
    mag = math.sqrt(ee * (1 - ee)) * rng.random()
    phase = rng.random() * 2 * math.pi
    return DensityMatrix2(ee, 1 - ee, mag * complex(math.cos(phase), math.sin(phase)))


class TestBackAction:
    def test_ground_is_dark(self):
        delta = back_action_increment(DensityMatrix2.ground(), 0.05)
        assert np.all(delta == 0.0)
        out = back_action_step(DensityMatrix2.ground(), 0.05)
        assert out == DensityMatrix2.ground()

    def test_excited_increment_matrix_oracle(self):
        # off-diagonals gain dW, diagonal untouched, trace stays zero
        delta = back_action_increment(DensityMatrix2.excited(), 0.01)
        assert delta[0, 1] == pytest.approx(0.01)
        assert delta[1, 0] == pytest.approx(0.01)
        assert delta[0, 0] == 0.0 and delta[1, 1] == 0.0
        assert abs(np.trace(delta)) < 1e-14

    def test_maximally_mixed_oracle(self):
        # increment is dW * sigma_x / 2
        delta = back_action_increment(DensityMatrix2.maximally_mixed(), 0.01)
        assert delta[0, 1] == pytest.approx(0.005)
        assert delta[0, 0] == 0.0

    def test_increment_against_dense_matrix_algebra(self):
        rng = np.random.default_rng(3)
        lower = np.array([[0.0, 0.0], [1.0, 0.0]], complex)
        for _ in range(200):
            rho = random_density(rng)
            dw = (rng.random() - 0.5) * 0.2
            m = rho.as_array()
            expect = lower @ m + m @ lower.conj().T
            expect = dw * (expect - np.trace(expect) * m)
            got = back_action_increment(rho, dw)
            assert np.allclose(got, expect, atol=1e-14)
            assert abs(np.trace(got)) < 1e-14

    def test_trace_preserved_bulk(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            rho = random_density(rng)
            dw = (rng.random() - 0.5) * 0.2
            assert abs(np.trace(back_action_increment(rho, dw))) < 1e-14

    def test_step_projects_to_physical_set(self):
        out = back_action_step(DensityMatrix2.excited(), 0.1)
        lo = 0.5 * (out.rho_ee + out.rho_gg) - math.sqrt(
            (0.5 * (out.rho_ee - out.rho_gg)) ** 2 + abs(out.rho_eg) ** 2
        )
        assert lo >= -1e-15
        assert out.rho_ee + out.rho_gg == pytest.approx(1.0, abs=1e-12)

    def test_step_magnitude_guard(self):
        with pytest.raises(ValueError, match="step too large"):
            back_action_step(DensityMatrix2.maximally_mixed(), 0.2)

    def test_invalid_density_rejected(self):
        with pytest.raises(ValueError, match="invalid density"):
            DensityMatrix2(0.9, 0.3, 0.0)
        with pytest.raises(ValueError, match="invalid density"):
            DensityMatrix2(0.5, 0.5, 0.9)


def _quiet_params(**kw):
    defaults = dict(gamma=0.01, dt=0.02, t_max=1.0, n_traj=1, seed=0, model="qmop")
    defaults.update(kw)
    return ModelParams(**defaults)


class TestHomodyneTrajectory:
    def test_zero_noise_current_equals_sigma_x(self):
        p = _quiet_params(model="nsm", beta=1.0)
        rec = run_homodyne_trajectory(p, "nsm_point_process", derive_stream(1, 0), kick=0.0)
        assert np.array_equal(rec.current, rec.sigma_x)
        # and the dipole decays deterministically from the equal superposition
        assert rec.sigma_x[0] == 1.0
        assert np.all(np.diff(rec.sigma_x) <= 0.0)

    def test_repeatable(self):
        p = _quiet_params()
        a = run_homodyne_trajectory(p, "white", derive_stream(2, 7))
        b = run_homodyne_trajectory(p, "white", derive_stream(2, 7))
        assert np.array_equal(a.current, b.current)

    def test_ensemble_mean_current_matches_mean_dipole(self):
        # the noise increment is independent of the state, so the binned mean
        # current and the binned mean recorded dipole agree within noise
        p = _quiet_params(n_traj=4000, seed=5)
        recs = run_homodyne_ensemble(p, "white")
        cur = np.stack([r.current for r in recs])
        sig = np.stack([r.sigma_x for r in recs])
        nb = 10
        reshape = lambda x: x.reshape(len(recs), nb, -1).mean(axis=2)
        cur_b, sig_b = reshape(cur), reshape(sig)
        diff = cur_b.mean(axis=0) - sig_b.mean(axis=0)
        se = (cur_b - sig_b).std(axis=0, ddof=1) / math.sqrt(len(recs))
        assert np.all(np.abs(diff) <= 3.0 * np.maximum(se, 1e-12))

    def test_point_process_kick_count_is_poisson(self):
        beta = 4.0
        p = _quiet_params(model="nsm", beta=beta, t_max=2.0, dt=0.01)
        rec = run_homodyne_trajectory(p, "nsm_point_process", derive_stream(3, 0))
        total = int(rec.kick_counts.sum())
        lam = beta * p.t_max
        assert abs(total - lam) < 3 * math.sqrt(lam) + 1

    def test_single_trajectory_matches_ensemble_member(self, monkeypatch):
        # the lock-step block math is elementwise, so block width is invisible
        p = _quiet_params(n_traj=9, seed=13)
        monkeypatch.setattr(homodyne, "BLOCK_SIZE", 4)
        recs = run_homodyne_ensemble(p, "white")
        for i in (0, 4, 8):
            solo = run_homodyne_trajectory(p, "white", derive_stream(13, i))
            assert np.array_equal(solo.current, recs[i].current)
            assert np.array_equal(solo.sigma_x, recs[i].sigma_x)

    def test_chunk_invariance(self, monkeypatch):
        p = _quiet_params(n_traj=60, seed=10)
        monkeypatch.setattr(homodyne, "BLOCK_SIZE", 7)
        base = run_homodyne_ensemble(p, "white")
        monkeypatch.setattr(homodyne, "BLOCK_SIZE", 64)
        alt = run_homodyne_ensemble(p, "white")
        for a, b in zip(base, alt):
            assert np.array_equal(a.current, b.current)
            assert np.array_equal(a.sigma_x, b.sigma_x)

    def test_long_window_warns(self):
        p = ModelParams(gamma=1.0, dt=0.01, t_max=5.0, n_traj=1, seed=0)
        with pytest.warns(UserWarning, match="lifetime"):
            run_homodyne_trajectory(p, "white", derive_stream(4, 0))

    @pytest.mark.parametrize("entry", ["trajectory", "records", "ensemble"])
    def test_long_window_warning_names_the_caller(self, entry):
        # iter_homodyne_records warns at its call, before any record is asked for
        p = ModelParams(gamma=1.0, dt=0.01, t_max=5.0, n_traj=1, seed=0)
        calls = {
            "trajectory": lambda: run_homodyne_trajectory(p, "white", derive_stream(4, 0)),
            "records": lambda: iter_homodyne_records(p, "white"),
            "ensemble": lambda: run_homodyne_ensemble(p, "white"),
        }
        with pytest.warns(UserWarning, match="lifetime") as caught:
            calls[entry]()
        assert [os.path.abspath(w.filename) for w in caught] == [os.path.abspath(__file__)]

    def test_records_check_their_arguments_at_the_call(self):
        p = _quiet_params(model="nsm", beta=1.0)
        with pytest.raises(ValueError, match="bogus"):
            iter_homodyne_records(p, "bogus")
        with pytest.raises(ValueError, match="kick must be >= 0"):
            iter_homodyne_records(p, "nsm_point_process", kick=-1.0)

    def test_takes_only_a_derive_stream_stream(self):
        class Increments:
            random = None  # as_generator takes any object with a ``random`` attribute

            def standard_normal(self, n):
                return np.zeros(n)

        p = _quiet_params()
        for stream in (derive_stream(0, 0).generator(), np.random.default_rng(0), Increments()):
            with pytest.raises(TypeError, match="derive_stream"):
                run_homodyne_trajectory(p, "white", stream)

    def test_matches_reference_state_loop(self):
        # the vectorized runner against a scalar reference built from the
        # public increment + projection + drift pieces, same noise stream
        p = _quiet_params(gamma=0.08, dt=0.01, t_max=0.5)
        rec = run_homodyne_trajectory(p, "white", derive_stream(14, 2))
        noise = white_noise_increments(derive_stream(14, 2), p.n_steps, p.dt)

        rho = DensityMatrix2.from_state(QubitState.superposition(1.0, 1.0))
        x = math.exp(-0.5 * p.gamma * p.dt)
        for k in range(p.n_steps):
            assert rec.sigma_x[k] == pytest.approx(rho.sigma_x(), abs=1e-12)
            assert rec.current[k] == pytest.approx(rho.sigma_x() + noise[k] / p.dt, abs=1e-9)
            delta = back_action_increment(rho, noise[k])
            ee = rho.rho_ee + delta[0, 0].real
            gg = rho.rho_gg + delta[1, 1].real
            eg = rho.rho_eg + delta[0, 1]
            mean = 0.5 * (ee + gg)
            disc = math.sqrt((0.5 * (ee - gg)) ** 2 + abs(eg) ** 2)
            if mean - disc < 0.0:
                lo, span = mean - disc, 2.0 * disc
                ee, gg, eg = (ee - lo) / span, (gg - lo) / span, eg / span
            t2 = x * x * ee + gg
            rho = DensityMatrix2(x * x * ee / t2, gg / t2, x * eg / t2)

    def test_back_action_step_is_the_engine_kick(self):
        # at gamma 0 and omega0 = omega1 = 0 the engine's drift only divides by
        # the trace, so back_action_step plus that division is the whole step
        p = _quiet_params(gamma=0.0, dt=0.01, t_max=2.0)
        z = np.random.default_rng(23).uniform(-1.0, 1.0, p.n_steps)  # |dW| = |z| sqrt(dt) <= 0.1
        start = QubitState.superposition(0.6, 0.8j)
        dws = z * math.sqrt(p.dt)
        (current,), (sigma_x,) = homodyne._lockstep_run(p, 0.0, DensityMatrix2.from_state(start), dws[:, None], 1.0)

        rho, clipped = DensityMatrix2.from_state(start), 0
        for k, dw in enumerate(dws.tolist()):
            assert bits(sigma_x[k]) == bits(rho.sigma_x())
            assert bits(current[k]) == bits(rho.sigma_x() + dw / p.dt)
            clipped += np.linalg.eigvalsh(rho.as_array() + back_action_increment(rho, dw))[0] < 0.0
            rho = back_action_step(rho, dw)
            t2 = rho.rho_ee + rho.rho_gg
            rho = DensityMatrix2(rho.rho_ee / t2, rho.rho_gg / t2, complex(rho.rho_eg.real / t2, rho.rho_eg.imag / t2))
        assert clipped >= 1


class TestOneBlockAtATime:
    """A streamed run frees each engine block before it computes the next one."""

    @pytest.fixture
    def previous_alive(self, monkeypatch):
        """Per ``_lockstep_run`` call, whether the previous call's ``cur`` and ``sig`` were still alive."""
        run = homodyne._lockstep_run
        refs, alive = [], []

        def spy(*args):
            alive.append([ref() is not None for ref in refs])
            cur, sig = run(*args)
            refs[:] = [weakref.ref(cur), weakref.ref(sig)]
            return cur, sig

        monkeypatch.setattr(homodyne, "_lockstep_run", spy)
        return alive

    def test_records_stream(self, previous_alive, monkeypatch):
        p = _quiet_params(n_traj=10, seed=3)
        monkeypatch.setattr(homodyne, "BLOCK_SIZE", 4)
        collections.deque(iter_homodyne_records(p, "white"), maxlen=0)
        assert previous_alive == [[], [False, False], [False, False]]

    def test_homodyne_command(self, tmp_path, previous_alive):
        # 1100 trajectories: two full blocks of 512 and a partial one
        cfg = tmp_path / "cfg.json"
        payload = {"noise": "nsm_point_process", "gamma": 0.01, "beta": 8.0, "dt": 0.01, "t_max": 0.04}
        cfg.write_text(json.dumps(dict(payload, n_traj=1100, seed=7, max_lag=2)))
        argv = ["homodyne", "--config", str(cfg), "--out-dir", str(tmp_path / "run"), "--threads", "1"]
        assert main(argv) == 0
        assert previous_alive == [[], [False, False], [False, False]]


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestLockstepNoise:
    """The engine's narrow step-major noise against the float64 noise matrix it replaced."""

    # beta 2e4: about 200 pulses per step, past int8 from the first
    # trajectory on; beta 1e4 at seed 0: block 0's counts pass 127 only at
    # its third trajectory, block 1's never do
    CASES = {
        "white": ("white", 10.0, 3),
        "dense": ("nsm_point_process", 2e4, 5),
        "widening": ("nsm_point_process", 1e4, 0),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_match_float_noise_oracle(self, case, monkeypatch):
        noise, beta, seed = self.CASES[case]
        p = _quiet_params(model="nsm", beta=beta, dt=0.01, t_max=0.3, n_traj=10, seed=seed)
        noise = NoiseModel(noise)
        kick = default_kick(beta) if noise is NoiseModel.NSM_POINT_PROCESS else 0.0
        monkeypatch.setattr(homodyne, "BLOCK_SIZE", 4)
        recs = run_homodyne_ensemble(p, noise, theta=0.4)
        dtypes = []
        for lo in range(0, p.n_traj, 4):
            ids = range(lo, min(lo + 4, p.n_traj))
            gens = (derive_stream(p.seed, i).generator() for i in ids)
            cur, sig, counts = homodyne_block(p, noise, 0.4, kick, _initial_rho(None), gens)
            block = recs[lo].block
            assert np.array_equal(bits(block.current), bits(cur)) and np.array_equal(bits(block.sigma_x), bits(sig))
            if counts is None:
                assert block.kick_counts is None
                continue
            assert np.array_equal(block.kick_counts, counts)
            assert block.kick_counts.dtype == np.min_scalar_type(-1 - int(counts.max()))
            dtypes.append(block.kick_counts.dtype)
            for i in ids:
                rec_counts = recs[i].kick_counts
                expected = point_process_increments(derive_stream(p.seed, i), p.n_steps, p.dt, beta, kick)[1]
                assert expected.dtype == np.int64 and np.array_equal(rec_counts, expected)
                assert np.iinfo(rec_counts.dtype).max >= expected.max()
        assert dtypes == {"white": [], "dense": [np.int16] * 3, "widening": [np.int16, np.int8, np.int8]}[case]


class TestPositionReader:
    """The point process read by Philox position against ``point_process_increments`` on a ``Generator``."""

    @staticmethod
    def oracle(p, ids):
        """Each stream's ``(counts, net kicks)`` as ``numpy.random`` draws them, rows in id order."""
        rows = [point_process_increments(derive_stream(p.seed, i).generator(), p.n_steps, p.dt, p.beta, 1.0) for i in ids]
        return np.array([c for _, c in rows]), np.array([net for net, _ in rows]).astype(np.int64)

    def assert_reads(self, p, ids, expected):
        steps, counts = homodyne._pulse_noise(p, p.seed, ids)
        expected_counts, expected_net = expected
        assert np.array_equal(counts, expected_counts) and np.array_equal(steps.T, expected_net)
        assert counts.dtype == steps.dtype == np.min_scalar_type(-1 - int(expected_counts.max()))

    def assert_reads_the_oracle(self, p, ids):
        self.assert_reads(p, ids, self.oracle(p, ids))

    def count_redraws(self, monkeypatch):
        """The generators ``_pulses`` is called on from now on."""
        pulses, redrawn = homodyne._pulses, []
        monkeypatch.setattr(homodyne, "_pulses", lambda gen, *a: redrawn.append(gen) or pulses(gen, *a))
        return redrawn

    @pytest.mark.parametrize("lam", [0.0, 0.01, 0.1, 1.0, 5.0, 9.99, 10.0])
    def test_records_match_the_generator_engine(self, lam):
        # beta*dt = lam; at lam 0 nothing is drawn and the kick must be given
        p = _quiet_params(model="nsm", beta=lam / 0.01, dt=0.01, t_max=0.6, n_traj=9, seed=5)
        kick, ids = 0.05, (0, 4, 8)
        recs = run_homodyne_ensemble(p, "nsm_point_process", theta=0.3, kick=kick)
        gens = (derive_stream(p.seed, i).generator() for i in ids)
        cur, sig, counts = homodyne_block(p, NoiseModel.NSM_POINT_PROCESS, 0.3, kick, _initial_rho(None), gens)
        for j, i in enumerate(ids):
            solo = run_homodyne_trajectory(p, "nsm_point_process", derive_stream(p.seed, i), theta=0.3, kick=kick)
            for rec in (recs[i], solo):
                assert np.array_equal(bits(rec.current), bits(cur[j]))
                assert np.array_equal(bits(rec.sigma_x), bits(sig[j]))
                assert np.array_equal(rec.kick_counts, counts[j])
        assert (recs[0].kick_counts.any()) == (lam > 0.0)

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 5.0, 9.99])
    def test_partial_sub_blocks_up_to_the_last_stream(self, lam, monkeypatch):
        # sub-blocks of 8, 8 and 5 trajectories: about 8.5 trajectories' draws each
        p = _quiet_params(model="nsm", beta=lam / 0.01, dt=0.01, t_max=0.4, seed=2**64 - 1)
        monkeypatch.setattr(homodyne, "_READ_BUDGET", 8.5 * p.n_steps * (10.0 + lam - 9.0 * math.exp(-lam)))
        read, sizes = homodyne._read_pulses, []
        monkeypatch.setattr(homodyne, "_read_pulses", lambda seed, ids, *a: sizes.append(ids.size) or read(seed, ids, *a))
        self.assert_reads_the_oracle(p, range(2**64 - 21, 2**64))
        assert sizes == [8, 8, 5]

    def count_reads(self, monkeypatch):
        """The ``(rows, draws)`` of each window read by position from now on."""
        read, reads = homodyne.philox_uniforms, []

        def spy(seed, ids, ctrs):
            reads.append((ids.shape[0], 4 * ctrs.size))
            return read(seed, ids, ctrs)

        monkeypatch.setattr(homodyne, "philox_uniforms", spy)
        return reads

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0, 5.0, 9.99])
    def test_short_windows_are_read_again(self, lam, monkeypatch):
        # a margin far below the mean makes every first window 4 draws long, too short
        # for 60 samples: every row is read again from draw 0, in windows twice as long
        monkeypatch.setattr(homodyne, "_READ_MARGIN", -1e9)
        p = _quiet_params(model="nsm", beta=lam / 0.01, dt=0.01, t_max=0.6, seed=11)
        reads = self.count_reads(monkeypatch)
        self.assert_reads_the_oracle(p, range(3, 16))
        assert reads[:2] == [(13, 4), (13, 8)]
        assert [d for _, d in reads] == [4 * 2**k for k in range(len(reads))]

    @pytest.mark.parametrize("beta, t_max", [(100.0, 8.0), (200.0, 8.0), (500.0, 4.0), (999.0, 3.0)])
    def test_rows_longer_than_2048_draws(self, beta, t_max, monkeypatch):
        p = _quiet_params(model="nsm", beta=beta, dt=0.01, t_max=t_max, seed=9)
        reads = self.count_reads(monkeypatch)
        self.assert_reads_the_oracle(p, range(12))
        assert min(d for _, d in reads) > 2048

    def test_counts_past_a_lowered_inversion_limit_take_the_generator(self, monkeypatch):
        # numpy inverts up to c*p = 30; a lower limit sends every stream with a
        # count above 2 through _pulses, which must give the same bytes
        p = _quiet_params(model="nsm", beta=100.0, dt=0.01, t_max=0.5, seed=4)
        ids = range(20)
        expected = self.oracle(p, ids)
        redrawn = self.count_redraws(monkeypatch)
        self.assert_reads(p, ids, expected)
        assert not redrawn
        monkeypatch.setattr(homodyne, "_BINOMIAL_INVERSION_MAX", 1.0)
        self.assert_reads(p, ids, expected)
        assert len(redrawn) == int((expected[0].max(axis=1) > 2).sum()) > 0

    def test_a_draw_past_the_bound_takes_the_generator(self, monkeypatch):
        # numpy draws again when X passes min(c, c*p + 10*sqrt(c*p*q + 1)), as at
        # c = 11 on the largest uniform; flag the first inverted draw of a block so
        p = _quiet_params(model="nsm", beta=10.0, dt=0.01, t_max=0.5, seed=4)
        heads, past = homodyne._inverted_heads(np.array([11, 11]), np.array([np.nextafter(1.0, 0.0), 0.5]))
        assert past.tolist() == [True, False]
        inverted = homodyne._inverted_heads

        def flag_first(c, u):
            heads, past = inverted(c, u)
            past[0] = True
            return heads, past

        expected = self.oracle(p, range(30))
        monkeypatch.setattr(homodyne, "_inverted_heads", flag_first)
        redrawn = self.count_redraws(monkeypatch)
        self.assert_reads(p, range(30), expected)
        assert len(redrawn) == 1

    def test_point_process_runs_without_numpy_random(self, tmp_path):
        # only white noise (and means from 10 pulses per step on) load numpy.random
        child = "import sys\nfrom qdecay.cli import main\nprint(main(sys.argv[1:]), 'numpy.random' in sys.modules)\n"
        loaded = {}
        for noise in ("nsm_point_process", "white"):
            cfg = tmp_path / f"{noise}.json"
            cfg.write_text(json.dumps({"noise": noise, "gamma": 0.01, "beta": 10.0, "dt": 0.01, "t_max": 0.2, "n_traj": 20, "seed": 7}))
            argv = ["homodyne", "--config", str(cfg), "--out-dir", str(tmp_path / noise)]
            env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
            proc = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env, timeout=120)
            loaded[noise] = proc.stdout.split()[-2:]
        assert loaded == {"nsm_point_process": ["0", "False"], "white": ["0", "True"]}, proc.stderr


class TestNoiseSamplers:
    def test_white_variance(self):
        d = white_noise_increments(derive_stream(6, 0), 400_000, 0.01)
        assert d.var() == pytest.approx(0.01, rel=0.02)

    def test_matched_lag_zero(self):
        beta, dt = 10.0, 0.01
        w = white_noise_increments(derive_stream(6, 1), 400_000, dt)
        p, _ = point_process_increments(derive_stream(6, 2), 400_000, dt, beta, default_kick(beta))
        assert p.var() / w.var() == pytest.approx(1.0, abs=0.02)

    def test_point_process_excess_kurtosis(self):
        beta, dt = 10.0, 0.01
        x, counts = point_process_increments(
            derive_stream(6, 3), 1_000_000, dt, beta, default_kick(beta)
        )
        c = x - x.mean()
        m2 = (c**2).mean()
        excess = (c**4).mean() / m2**2 - 3.0
        # compound point process of +-kick pulses: excess kurtosis 1/(beta*dt)
        assert excess == pytest.approx(1.0 / (beta * dt), rel=0.1)
        assert excess > 0.5 / (beta * dt)

    def test_zero_mean(self):
        x, _ = point_process_increments(derive_stream(6, 4), 200_000, 0.01, 5.0, 0.3)
        assert abs(x.mean()) < 5 * x.std() / math.sqrt(x.size)


class TestAutocorrelation:
    def test_alternating_series(self):
        zeta = autocorrelation([1.0, -1.0, 1.0, -1.0], max_lag=1)
        assert zeta[0] == pytest.approx(1.0)
        assert zeta[1] == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        zeta = autocorrelation([3.3] * 50, max_lag=5)
        assert np.allclose(zeta, 0.0)

    def test_white_noise_peaked_at_zero(self):
        x = derive_stream(7, 0).generator().standard_normal(100_000)
        zeta = signal_autocorrelation(x, max_lag=40)
        se = zeta[0] / math.sqrt(x.size)
        assert np.all(np.abs(zeta[1:]) < 5 * se)
        assert zeta[0] > 50 * np.abs(zeta[1:]).max()

    def test_too_short(self):
        with pytest.raises(ValueError, match="series too short"):
            autocorrelation([1.0, 2.0], max_lag=5)

    def test_record_interface(self):
        p = _quiet_params()
        rec = run_homodyne_trajectory(p, "white", derive_stream(8, 0))
        zeta = signal_autocorrelation(rec, max_lag=5)
        assert zeta.shape == (6,)

    def test_ensemble_accumulator_matches_direct_computation(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((20, 100))
        acc = EnsembleAutocorrelation(100, 8)
        for row in data:
            acc.add(row)
        zeta = acc.result()
        # direct per-time-mean-subtracted computation
        d = data - data.mean(axis=0, keepdims=True)
        for k in range(9):
            direct = (d[:, : 100 - k] * d[:, k:]).sum() / (20 * (100 - k))
            assert zeta[k] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def _split_feed(x, cuts, max_lag):
    """The accumulator's result with the rows of ``x`` added as the blocks between ``cuts``."""
    acc = EnsembleAutocorrelation(x.shape[1], max_lag)
    edges = [0, *cuts, x.shape[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        acc.add(x[lo:hi])
    return acc.result().tobytes()


class TestEnsembleAutocorrelationBlocks:
    """Rows are summed one at a time in row order, so the block split never shows in the bytes."""

    @settings(deadline=None, max_examples=80)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 60),
        offset=st.sampled_from([0.0, 1e6, -3.5]),
        seed=st.integers(0, 2**32 - 1),
        lag_fraction=st.floats(0.0, 1.0),
        cuts=st.sets(st.integers(1, 11)),
    )
    # max_lag = n_steps - 1 on currents offset by 1e6, every block a single row
    @example(m=5, n=40, offset=1e6, seed=1, lag_fraction=1.0, cuts={1, 2, 3, 4})
    def test_result_bytes_do_not_depend_on_the_blocks(self, m, n, offset, seed, lag_fraction, cuts):
        x = np.random.default_rng(seed).standard_normal((m, n)) * 7.0 + offset
        max_lag = round(lag_fraction * (n - 1))
        one_by_one = EnsembleAutocorrelation(n, max_lag)
        for row in x:
            one_by_one.add(row)
        want = one_by_one.result().tobytes()
        assert _split_feed(x, sorted(c for c in cuts if c < m), max_lag) == want
        assert _split_feed(x, [], max_lag) == want
        assert _split_feed(x, list(range(1, m)), max_lag) == want
