import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engines import (
    PatchedGenerator,
    _truncated_exponential_time,
    assert_same_record,
    nsm_record,
    patched_philox,
    spy_calls,
    step_decay_record,
)
from scipy.integrate import quad

from qdecay import lockstep, models, rabi, stats
from qdecay.core import EncodedColumn, EventKind, Model, ModelParams, QubitState, derive_stream
from qdecay.models import (
    NSM_BETA_ZERO_FLAG,
    NsmOutcome,
    decay_time_cdf,
    fluctuation_gap_density,
    jump_probability,
    occupation_drop_density,
    occupation_drop_moments,
    qmop_propagate,
    run_decay_ensemble,
    run_nsm_trajectory,
    run_qmop_trajectory,
    run_swf_trajectory,
    sample_fluctuation_gap,
    survival_probability,
    swf_detection_probability,
    unitary_weights,
)

LN2 = math.log(2.0)


def params(model="qmop", gamma=1.0, dt=0.01, t_max=25.0, n_traj=1, seed=0, beta=0.0, **kw):
    return ModelParams(
        gamma=gamma, dt=dt, t_max=t_max, n_traj=n_traj, seed=seed, model=model, beta=beta, **kw
    )


class TestSurvivalAndWeights:
    def test_zero_time(self):
        assert survival_probability(1.0, 0.0) == 1.0

    def test_no_decay_channel(self):
        assert survival_probability(0.0, 5.0) == 1.0

    def test_half_life(self):
        assert survival_probability(1.0, LN2) == pytest.approx(0.5)

    def test_negative_time(self):
        with pytest.raises(ValueError, match="negative time"):
            survival_probability(1.0, -0.1)

    def test_weights_trivial(self):
        assert unitary_weights(1.0, 0.0) == (1.0, 0.0)
        e, c = unitary_weights(1.0, LN2)
        assert e == pytest.approx(0.5) and c == pytest.approx(0.5)

    def test_weights_exponential_oracle(self):
        e, c = unitary_weights(0.3, 2.0)
        assert e == pytest.approx(math.exp(-0.6), abs=1e-15)
        assert c == pytest.approx(1.0 - math.exp(-0.6), abs=1e-15)

    @given(st.floats(0.0, 5.0), st.floats(0.0, 50.0))
    def test_weights_sum_exactly_one(self, gamma, t):
        e, c = unitary_weights(gamma, t)
        assert e + c == 1.0


def _rk4_no_jump_oracle(c1_0, c0_0, gamma, omega0, omega1, t, h=1e-5):
    """Independent oracle: integrate the raw non-Hermitian equations of motion
    with RK4, then normalize at the end."""

    def rhs(y):
        return np.array(
            [-(0.5 * gamma + 1j * omega1) * y[0], -1j * omega0 * y[1]], dtype=complex
        )

    y = np.array([c1_0, c0_0], dtype=complex)
    steps = int(t / h)
    sizes = [h] * steps + [t - steps * h]
    for hh in sizes:
        if hh == 0.0:
            continue
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * hh * k1)
        k3 = rhs(y + 0.5 * hh * k2)
        k4 = rhs(y + hh * k3)
        y = y + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y / np.linalg.norm(y)


class TestQmopPropagate:
    def test_pure_excited_stays_excited(self):
        p = params()
        for t in (0.1, 1.0, 7.5):
            out = qmop_propagate(QubitState.excited(), p, t)
            assert abs(out.c_excited) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_equal_superposition_at_half_life(self):
        p = params()
        s = QubitState.superposition(1.0, 1.0)
        out = qmop_propagate(s, p, LN2)
        assert abs(out.c_excited) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(out.c_ground) ** 2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_against_rk4_oracle(self):
        p = params(omega0=0.4, omega1=1.3)
        s = QubitState.superposition(1.0, 1.0)
        out = qmop_propagate(s, p, LN2)
        ref = _rk4_no_jump_oracle(s.c_excited, s.c_ground, 1.0, 0.4, 1.3, LN2)
        assert abs(out.c_excited - ref[0]) < 1e-6
        assert abs(out.c_ground - ref[1]) < 1e-6

    def test_zero_time_identity(self):
        p = params()
        s = QubitState.superposition(0.3 + 0.1j, 0.8)
        out = qmop_propagate(s, p, 0.0)
        assert out.c_excited == pytest.approx(s.c_excited)
        assert out.c_ground == pytest.approx(s.c_ground)

    def test_norm_kept_along_steps(self):
        p = params()
        s = QubitState.superposition(1.0, 1.0)
        for _ in range(200):
            s = qmop_propagate(s, p, 0.05)
            assert abs(s.c_excited) ** 2 + abs(s.c_ground) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_photon_component_rejected(self):
        p = params()
        with pytest.raises(ValueError, match="photon component"):
            qmop_propagate(QubitState(0.5, 0.5, 0.5), p, 1.0)


class TestJumpProbability:
    def test_pure_excited_time_independent(self):
        p = params()
        s = QubitState.excited()
        for t in (0.0, 1.0, 10.0):
            evolved = qmop_propagate(s, p, t)
            assert jump_probability(evolved, 1.0, 0.01) == pytest.approx(0.01, abs=1e-14)

    def test_pure_ground(self):
        assert jump_probability(QubitState.ground(), 1.0, 0.01) == 0.0

    def test_arithmetic(self):
        s = QubitState(math.sqrt(1.0 / 3.0), math.sqrt(2.0 / 3.0))
        assert jump_probability(s, 1.0, 0.03) == pytest.approx(0.01)

    def test_step_too_large(self):
        with pytest.raises(ValueError, match="step too large"):
            jump_probability(QubitState.excited(), 2.0, 0.1)


class TestDecayTimeLaw:
    """``decay_time_cdf``: the step law of qmop/swf, the exponential law of nsm."""

    def test_swf_law_is_exponential(self):
        t = np.linspace(0.0, 20.0, 2001) + 0.0037
        law = decay_time_cdf(Model.SWF, 1.3, 0.05)
        assert np.max(np.abs(law(t) + np.expm1(-1.3 * t))) < 1e-14

    def test_qmop_law_steps_with_hazard_gamma_dt(self):
        law = decay_time_cdf(Model.QMOP, 1.0, 0.1)
        k = np.arange(200)
        assert np.max(np.abs(law(k * 0.1) - (1.0 - (1.0 - 0.1) ** k))) < 1e-14
        # within a step the law follows the truncated exponential, and stays off the exponential law by O(gamma dt)
        t = np.linspace(0.0, 20.0, 20001)
        assert np.all(np.diff(law(t)) >= 0.0)
        assert 0.018 < np.max(np.abs(law(t) + np.expm1(-t))) < 0.02

    def test_nsm_law_is_exponential(self):
        t = np.linspace(0.0, 5.0, 11)
        assert np.max(np.abs(decay_time_cdf(Model.NSM, 2.0, 0.1)(t) + np.expm1(-2.0 * t))) < 1e-14

    @pytest.mark.parametrize("dt, qmop", [(0.01, 0.00185), (0.05, 0.0094), (0.1, 0.0192)])
    def test_law_distance_from_the_exponential(self, dt, qmop):
        assert models.law_distance(Model.QMOP, 1.0, dt, 20.0) == pytest.approx(qmop, abs=5e-5)
        assert models.law_distance(Model.SWF, 1.0, dt, 20.0) < 1e-14
        assert models.law_distance(Model.NSM, 1.0, dt, 20.0 - dt / 3) < 1e-14

    @pytest.mark.parametrize("model, horizon", [(Model.QMOP, 3.0), (Model.QMOP, 2.0 + 0.1 / 3), (Model.SWF, 3.0)])
    def test_law_distance_is_the_sup_over_the_horizon(self, model, horizon):
        # the two conditioned laws differ by an affine function of 1 - exp(-gamma f) inside a step:
        # a fine grid over the whole horizon never exceeds the value at the step ends
        law = decay_time_cdf(model, 1.0, 0.1)
        t = np.linspace(0.0, horizon, 100_001)
        fine = np.max(np.abs(law(t) / law(np.array([horizon]))[0] - np.expm1(-t) / np.expm1(-horizon)))
        assert fine <= models.law_distance(model, 1.0, 0.1, horizon) + 1e-15
        assert fine == pytest.approx(models.law_distance(model, 1.0, 0.1, horizon), abs=1e-5)


class TestQmopTrajectory:
    def test_gamma_zero_never_jumps(self):
        p = params(gamma=0.0, t_max=5.0)
        for i in range(50):
            rec = run_qmop_trajectory(p, derive_stream(1, i))
            assert rec.decay_time is None

    def test_pure_ground_never_jumps(self):
        p = params(t_max=5.0)
        rec = run_qmop_trajectory(p, derive_stream(2, 0), initial_state=QubitState.ground())
        assert rec.decay_time is None
        assert not rec.events

    def test_pre_jump_occupation_is_one(self):
        p = params(t_max=5.0)
        rec = run_qmop_trajectory(p, derive_stream(3, 5), record_steps=True)
        assert rec.decay_time is not None
        k = int(rec.decay_time / p.dt)
        assert np.all(rec.occupation_series[: k + 1] == 1.0)
        assert np.all(rec.occupation_series[k + 1 :] == 0.0)

    def test_decay_times_exponential(self):
        p = params(n_traj=5000, seed=77)
        summary = run_decay_ensemble(p)
        d = stats.ks_distance(summary.observed_decay_times, lambda t: -np.expm1(-t))
        assert d < 2.5 * 1.36 / math.sqrt(p.n_traj)

    def test_single_trajectory_matches_ensemble_path(self):
        p = params(n_traj=20, seed=99)
        summary = run_decay_ensemble(p)
        for i in range(p.n_traj):
            rec = run_qmop_trajectory(p, derive_stream(p.seed, i))
            lhs = math.nan if rec.decay_time is None else rec.decay_time
            assert (
                (math.isnan(lhs) and math.isnan(summary.decay_times[i]))
                or lhs == summary.decay_times[i]
            )

    def test_phases_do_not_change_decay_statistics(self):
        rec_a = run_qmop_trajectory(params(seed=5), derive_stream(5, 3))
        rec_b = run_qmop_trajectory(params(seed=5, omega0=2.0, omega1=5.0), derive_stream(5, 3))
        assert rec_a.decay_time == rec_b.decay_time


class TestSwfTrajectory:
    def test_no_detection_survival_weight(self):
        # n silent steps reduce the surviving weight by exp(-gamma*n*dt) exactly
        gamma, dt, n = 1.0, 0.01, 173
        s = QubitState.excited()
        p_step = swf_detection_probability(s, gamma, dt)
        survival = (1.0 - p_step) ** n
        assert survival == pytest.approx(math.exp(-gamma * n * dt), rel=1e-12)

    def test_detection_probability_scales_with_occupation(self):
        s = QubitState.superposition(1.0, 1.0)
        full = swf_detection_probability(QubitState.excited(), 1.0, 0.01)
        assert swf_detection_probability(s, 1.0, 0.01) == pytest.approx(0.5 * full)

    def test_decay_times_exponential(self):
        p = params(model="swf", n_traj=5000, seed=31)
        summary = run_decay_ensemble(p)
        d = stats.ks_distance(summary.observed_decay_times, lambda t: -np.expm1(-t))
        assert d < 2.5 * 1.36 / math.sqrt(p.n_traj)

    def test_terminal_event_is_photon_detection(self):
        p = params(model="swf", t_max=30.0)
        rec = run_swf_trajectory(p, derive_stream(8, 2))
        assert rec.events[-1].kind is EventKind.PHOTON_DETECTION
        assert rec.events[-1].occupation_after == 0.0

    def test_matches_qmop_mean_occupation_in_continuous_limit(self):
        # dt*gamma = 0.01: binned occupation curves agree within 3 combined SE
        pq = params(n_traj=4000, seed=51, t_max=8.0)
        ps = params(model="swf", n_traj=4000, seed=52, t_max=8.0)
        sq = run_decay_ensemble(pq, bin_steps=40)
        ss = run_decay_ensemble(ps, bin_steps=40)
        se = np.sqrt(sq.occupation_se**2 + ss.occupation_se**2)
        gap = np.abs(sq.occupation_mean - ss.occupation_mean)
        assert np.all(gap <= 3.0 * np.maximum(se, 1e-12))


class _FakeStream:
    """Duck-typed stream yielding a canned uniform sequence."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(size)])


class TestFluctuationGaps:
    def test_mean_matches_rate(self):
        gaps = sample_fluctuation_gap(1.0, derive_stream(4, 0), size=1_000_000)
        assert abs(gaps.mean() - 1.0) < 3.0 / math.sqrt(gaps.size)

    def test_density_at_origin(self):
        beta = 2.0
        gaps = sample_fluctuation_gap(beta, derive_stream(4, 1), size=1_000_000)
        width = 0.01
        density = float((gaps < width).sum()) / (gaps.size * width)
        assert density == pytest.approx(beta, abs=0.06)

    def test_degenerate_draw_resampled(self):
        gap = sample_fluctuation_gap(1.0, _FakeStream([0.0, 0.5]))
        assert gap == pytest.approx(-math.log(0.5))
        # redrawn in sequence: the zero's gap takes the next uniform
        gaps = sample_fluctuation_gap(1.0, _FakeStream([0.0, 0.5, 0.25]), size=2)
        assert gaps.tolist() == [-math.log(0.5), -math.log(0.25)]

    def test_sized_draw_is_scalar_draws(self):
        stream = derive_stream(4, 0)
        gaps = sample_fluctuation_gap(1.3, stream, size=100_000)
        gen = stream.generator()
        assert gaps.tolist() == [sample_fluctuation_gap(1.3, gen) for _ in range(gaps.size)]

    def test_non_positive_rate(self):
        with pytest.raises(ValueError, match="non-positive rate"):
            sample_fluctuation_gap(0.0, derive_stream(4, 2))


class TestGapAndDropDensities:
    def test_gap_density_values(self):
        assert fluctuation_gap_density(1.0, 0.0) == 1.0
        assert fluctuation_gap_density(1.0, -1.0) == pytest.approx(math.exp(-1.0))

    def test_gap_density_normalized(self):
        val, _ = quad(lambda tau: fluctuation_gap_density(1.7, tau), -60.0, 0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_gap_density_rejects_positive_tau(self):
        with pytest.raises(ValueError, match="positive tau"):
            fluctuation_gap_density(1.0, 0.5)

    def test_drop_density_uniform_at_r_one(self):
        for a in (0.0, 0.2, 0.5, 0.99):
            assert occupation_drop_density(1.0, a) == 1.0

    def test_drop_density_at_zero(self):
        assert occupation_drop_density(2.0, 0.0) == 2.0

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 10.0])
    def test_drop_density_normalized(self, r):
        val, _ = quad(lambda a: occupation_drop_density(r, a), 0.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_drop_density_range(self):
        with pytest.raises(ValueError, match="out of range"):
            occupation_drop_density(1.0, 1.0)

    def test_pushforward_of_gap_density_is_drop_density(self):
        # change of variables a = 1 - exp(gamma*tau) for tau <= 0
        gamma, beta = 0.7, 1.3
        r = beta / gamma
        for a in np.linspace(1e-6, 1 - 1e-6, 500):
            tau = math.log(1.0 - a) / gamma
            jac = 1.0 / (gamma * (1.0 - a))
            via_gap = fluctuation_gap_density(beta, tau) * jac
            assert abs(via_gap - occupation_drop_density(r, a)) < 1e-8


class TestDropMoments:
    def test_beta_zero(self):
        m = occupation_drop_moments(1.0, 0.0)
        assert (m.mean_a, m.std_a) == (1.0, 0.0)

    def test_r_one(self):
        m = occupation_drop_moments(1.0, 1.0)
        assert m.mean_a == pytest.approx(0.5)
        assert m.std_a == pytest.approx(0.5 * math.sqrt(1.0 / 3.0))
        assert m.std_a == pytest.approx(0.288675, abs=1e-6)

    def test_large_beta_limit(self):
        m = occupation_drop_moments(1.0, 1e9)
        assert m.mean_a < 1e-8 and m.std_a < 1e-8

    @pytest.mark.parametrize("r", [0.25, 1.0, 3.0])
    def test_against_quadrature_oracle(self, r):
        mean, _ = quad(lambda a: a * occupation_drop_density(r, a), 0.0, 1.0)
        second, _ = quad(lambda a: a * a * occupation_drop_density(r, a), 0.0, 1.0)
        m = occupation_drop_moments(1.0, r)
        assert m.mean_a == pytest.approx(mean, abs=1e-9)
        assert m.std_a == pytest.approx(math.sqrt(second - mean**2), abs=1e-8)

    def test_non_positive_gamma(self):
        with pytest.raises(ValueError, match="non-positive gamma"):
            occupation_drop_moments(0.0, 1.0)


class TestNsmTrajectory:
    def test_forced_grid_product_law(self):
        # fluctuations forced onto the step grid: survival through n of them
        # telescopes to exp(-gamma*n*dt)
        dt = 0.05
        grid = [k * dt for k in range(1, 401)]
        p = params(model="nsm", beta=1.0, dt=dt, t_max=20.0)
        n_check = 10
        survived = 0
        total = 400
        for i in range(total):
            rec = run_nsm_trajectory(p, derive_stream(21, i), fluctuation_times=grid)
            events = rec.nsm_events
            n_resets = sum(
                1 for ev in events[:n_check] if ev.outcome is NsmOutcome.RESET_TO_EXCITED
            )
            if n_resets == min(n_check, len(events)):
                survived += 1
            for ev in events:
                assert ev.a_before == pytest.approx(-math.expm1(-p.gamma * dt), abs=1e-12)
        expect = math.exp(-p.gamma * n_check * dt)
        sigma = math.sqrt(expect * (1 - expect) / total)
        assert abs(survived / total - expect) < 4 * sigma

    def test_occupation_drop_matches_gap(self):
        p = params(model="nsm", beta=2.0, t_max=60.0)
        rec = run_nsm_trajectory(p, derive_stream(22, 4))
        for ev in rec.nsm_events:
            assert ev.a_before == pytest.approx(-math.expm1(-p.gamma * ev.gap), abs=1e-12)
            assert ev.gap > 0.0

    def test_long_gap_drop_rounds_to_one(self):
        # gamma*gap > ~37.4 makes 1 - exp(-gamma*gap) exactly 1.0 in doubles
        p = params(model="nsm", beta=0.1, t_max=80.0)
        rec = run_nsm_trajectory(p, derive_stream(3, 23), record_steps=True)
        assert rec.nsm_events[-1].gap * p.gamma > 37.5
        assert rec.nsm_events[-1].a_before == 1.0
        assert rec.decay_time is not None

    def test_terminal_event_ends_trajectory(self):
        p = params(model="nsm", beta=1.0, t_max=200.0)
        rec = run_nsm_trajectory(p, derive_stream(23, 1))
        assert rec.decay_time is not None
        assert rec.events[-1].kind is EventKind.QUANTUM_JUMP
        # the attributed emission time lies inside the terminal gap
        last = rec.nsm_events[-1]
        assert last.t - last.gap < rec.decay_time <= last.t

    def test_record_steps_with_terminal_jump(self):
        # step events stop at the jump; the series zeroes from there on
        p = params(model="nsm", beta=1.0, t_max=30.0)
        rec = run_nsm_trajectory(p, derive_stream(25, 2), record_steps=True)
        assert rec.decay_time is not None
        jump_t = rec.events[-1].t
        assert rec.events[-1].kind is EventKind.QUANTUM_JUMP
        assert all(ev.t <= jump_t for ev in rec.events)
        assert np.all(rec.occupation_series[np.arange(p.n_steps + 1) * p.dt >= jump_t] == 0.0)

    def test_record_steps_skips_grid_times_taken_by_fluctuations(self):
        # fluctuations on every third grid point: those grid times carry the
        # fluctuation row, and no STEP row repeats them
        p = params(model="nsm", gamma=0.2, dt=0.05, t_max=30.0)
        grid = np.arange(1, p.n_steps + 1) * p.dt
        forced = grid[2::3]
        rec = run_nsm_trajectory(p, derive_stream(27, 0), record_steps=True, fluctuation_times=forced)
        assert rec.decay_time is not None
        times = [ev.t for ev in rec.events]
        assert times == grid[grid <= times[-1]].tolist()
        fluct = [ev.t for ev in rec.events if ev.kind is not EventKind.STEP]
        assert fluct == forced[: len(fluct)].tolist() == [ev.t for ev in rec.nsm_events]
        assert 0 < len(fluct) < len(times)
        # the STEP rows equal a per-step loop over the grid
        series, taken = rec.occupation_series, set(fluct)
        loop = [
            ((j + 1) * p.dt, float(series[j]), float(series[j + 1]))
            for j in range(p.n_steps)
            if (j + 1) * p.dt < times[-1] and (j + 1) * p.dt not in taken
        ]
        steps = [(ev.t, ev.occupation_before, ev.occupation_after) for ev in rec.events if ev.kind is EventKind.STEP]
        assert steps == loop

    def test_beta_zero_degenerate_limit(self):
        p = params(model="nsm", beta=0.0, t_max=5.0)
        rec = run_nsm_trajectory(p, derive_stream(24, 0), record_steps=True)
        assert rec.decay_time is None
        assert NSM_BETA_ZERO_FLAG in rec.flags
        grid = np.arange(p.n_steps + 1) * p.dt
        assert np.allclose(rec.occupation_series, np.exp(-grid), atol=1e-12)

    def test_decay_times_exponential_for_all_beta(self):
        for beta, t_max in ((0.2, 300.0), (5.0, 40.0)):
            p = params(model="nsm", beta=beta, t_max=t_max, n_traj=4000, seed=91)
            summary = run_decay_ensemble(p)
            assert summary.n_censored == 0
            d = stats.ks_distance(summary.observed_decay_times, lambda t: -np.expm1(-t))
            assert d < 2.5 * 1.36 / math.sqrt(p.n_traj)

    def test_drop_samples_match_analytic_moments(self):
        p = params(model="nsm", beta=1.0, t_max=80.0, n_traj=8000, seed=13)
        summary = run_decay_ensemble(p)
        mean, var, se = stats.mean_var_se(summary.drop_samples)
        analytic = occupation_drop_moments(p.gamma, p.beta)
        assert abs(mean - analytic.mean_a) < 3 * se

    def test_terminal_drops_are_size_biased(self):
        # a fluctuation ends the trajectory with probability equal to its own
        # drop, so terminal drops follow (1+r) a r (1-a)^(r-1); this pins the
        # coupling between the outcome draw and the gap draw
        from scipy.stats import chi2 as chi2_dist

        r = 1.0
        p = params(model="nsm", beta=r, t_max=80.0, n_traj=30000, seed=37)
        s = run_decay_ensemble(p)
        term = s.drop_samples[s.drop_terminal]
        assert term.size == p.n_traj - s.n_censored
        counts, edges = np.histogram(term, bins=20, range=(0.0, 1.0))

        def cdf(a):  # integral of (1+r) r a (1-a)^(r-1) for r = 1 is a^2
            return a**2

        expected = term.size * (cdf(edges[1:]) - cdf(edges[:-1]))
        x2 = float(np.sum((counts - expected) ** 2 / expected))
        assert x2 < chi2_dist.ppf(0.99, 19)

    def test_wrong_model_rejected(self):
        with pytest.raises(ValueError, match="model=nsm"):
            run_nsm_trajectory(params(model="qmop"), derive_stream(0, 0))

    @pytest.mark.parametrize("beta", [0.3, 3.0])
    def test_ensemble_mean_occupation_is_exponential(self, beta):
        # survival weight times the between-fluctuation sag telescopes to
        # exp(-gamma t) exactly, for every fluctuation rate; the target is
        # binned over the same step grid as the recorded series
        p = params(model="nsm", beta=beta, t_max=8.0, n_traj=3000, seed=71)
        bin_steps = 40
        s = run_decay_ensemble(p, bin_steps=bin_steps)
        grid = np.arange(p.n_steps) * p.dt
        target = np.exp(-p.gamma * grid).reshape(-1, bin_steps).mean(axis=1)
        z = np.abs(s.occupation_mean - target) / np.maximum(s.occupation_se, 1e-300)
        assert np.all(z <= 3.5)


def event_rows(records, steps=True):
    """``(traj_id, event)`` for every event of ``records``, STEP events only if ``steps``."""
    return [(r.traj_id, ev) for r in records for ev in r.events if steps or ev.kind is not EventKind.STEP]


def kind_names(table):
    """The event table's kind codes, decoded to the names the events file spells."""
    return [lockstep.EVENT_KIND_NAMES[code] for code in table.kind.tolist()]


def assert_table_holds(table, rows):
    """The event table is ``rows``, in order, field for field."""
    assert table.traj_id.tolist() == [i for i, _ in rows]
    assert table.t.tolist() == [ev.t for _, ev in rows]
    assert kind_names(table) == [ev.kind.value for _, ev in rows]
    assert table.occupation_before.tolist() == [ev.occupation_before for _, ev in rows]
    assert table.occupation_after.tolist() == [ev.occupation_after for _, ev in rows]


class TestBatchedStepEngine:
    """The lock-step engine, over every id or over one, equals the scalar reference engine."""

    CASES = {
        "pure_excited": (dict(t_max=25.0, n_traj=300, seed=2024), None),
        "superposition": (dict(t_max=4.02, n_traj=300, seed=2**64 - 1), QubitState.superposition(0.6, 0.8j)),
        "censored": (dict(t_max=0.37, n_traj=400, seed=5, dt=0.01), None),
    }
    RUNNERS = {"qmop": run_qmop_trajectory, "swf": run_swf_trajectory}

    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("model,run", sorted(RUNNERS.items()))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_ensemble_matches_scalar_trajectories(self, model, run, case, record_steps):
        kw, initial = self.CASES[case]
        p = params(model=model, **kw)
        records = [step_decay_record(p, derive_stream(p.seed, i), initial, record_steps) for i in range(p.n_traj)]
        for i, ref in enumerate(records):
            assert_same_record(run(p, derive_stream(p.seed, i), initial_state=initial, record_steps=record_steps), ref)
        expected = np.array([math.nan if r.decay_time is None else r.decay_time for r in records])
        if case == "censored":
            assert 0 < np.isnan(expected).sum() < p.n_traj
        s = run_decay_ensemble(p, initial_state=initial, bin_steps=7, record_steps=record_steps)
        assert np.array_equal(s.decay_times, expected, equal_nan=True)
        assert_table_holds(s.events, event_rows(records))
        if record_steps:  # the records keep their series only then
            assert_bins_hold(s, records, p, 7)

    @settings(deadline=None)
    @example(model="qmop", gamma=1.0, c_ground=0.0, t_max=3.0, seed=0, stream_id=2**63, record_steps=True)
    @example(model="swf", gamma=8.0, c_ground=0.8j, t_max=3.0, seed=2**64 - 1, stream_id=2**64 - 1, record_steps=False)
    @given(
        model=st.sampled_from(sorted(RUNNERS)),
        gamma=st.sampled_from([0.0, 1.0, 8.0]),
        c_ground=st.sampled_from([0.0, 0.8j, 2.0]),
        t_max=st.sampled_from([0.05, 0.37, 3.0]),
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        record_steps=st.booleans(),
    )
    def test_runner_matches_reference_on_any_stream(self, model, gamma, c_ground, t_max, seed, stream_id, record_steps):
        p = params(model=model, gamma=gamma, t_max=t_max, seed=seed)
        initial = QubitState.superposition(0.6, c_ground)
        stream = derive_stream(seed, stream_id)
        run = self.RUNNERS[model]
        rec = run(p, stream, initial_state=initial, record_steps=record_steps)
        assert_same_record(rec, step_decay_record(p, stream, initial, record_steps))
        nsm = params(model="nsm", gamma=gamma, beta=1.0, t_max=t_max, seed=seed)
        for runner, q in ((run, p), (run_nsm_trajectory, nsm)):
            with pytest.raises(TypeError, match="derive_stream"):
                runner(q, stream.generator(), initial_state=initial)

    @settings(deadline=None)
    @example(rate=0.0, width=0.01, v=[0.0, 1.0 - 2.0**-53, 0.5])
    @example(rate=1e-300, width=0.01, v=[0.0, 1.0 - 2.0**-53])
    @example(rate=50.0, width=0.01, v=[0.0, 1.0 - 2.0**-53, 2.0**-53])
    @given(
        rate=st.one_of(st.sampled_from([0.0, 1e-300, 50.0]), st.floats(0.0, 1e3)),
        width=st.one_of(st.sampled_from([0.01, 1e-300, 40.0]), st.floats(1e-12, 1e2)),
        v=st.lists(st.one_of(st.sampled_from([0.0, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)), max_size=50),
    )
    def test_vector_attribution_is_scalar_attribution(self, rate, width, v):
        expected = [_truncated_exponential_time(rate, width, x) for x in v]
        assert lockstep.truncated_exponential_times(rate, width, np.array(v, dtype=float)).tolist() == expected

    def test_superposition_varies_jump_probability(self):
        from qdecay.core import Model
        from qdecay.models import _step_plan

        kw, initial = self.CASES["superposition"]
        plan = _step_plan(params(**kw), initial, Model.QMOP)
        assert plan.jump_prob[0] > plan.jump_prob[-1] > 0.0

    def test_never_jumping_inputs_are_all_censored(self):
        for p, initial in ((params(gamma=0.0, n_traj=5), None), (params(n_traj=5), QubitState.ground())):
            s = run_decay_ensemble(p, initial_state=initial)
            assert s.n_censored == 5 and len(s.events) == 0


def assert_nsm_ensemble_holds(s, records, p, bin_steps, record_steps):
    """The nsm ensemble's columns are those of the records, in trajectory order."""
    times = [math.nan if r.decay_time is None else r.decay_time for r in records]
    assert np.array_equal(s.decay_times, np.array(times), equal_nan=True)
    assert_table_holds(s.events, event_rows(records, steps=record_steps))
    fluctuations = [ev for r in records for ev in r.nsm_events]
    assert s.drop_samples.tolist() == [ev.a_before for ev in fluctuations]
    assert s.drop_terminal.tolist() == [ev.outcome is NsmOutcome.JUMP_TO_GROUND for ev in fluctuations]
    assert_bins_hold(s, records, p, bin_steps)


def assert_bins_hold(s, records, p, bin_steps):
    """The ensemble's occupation bins are those of the records' series, bit for bit."""
    edges = np.arange(p.n_steps // bin_steps + 1) * bin_steps
    vals = np.array([np.add.reduceat(r.occupation_series[: p.n_steps], edges[:-1]) / bin_steps for r in records])
    assert np.array_equal(s.occupation_mean, vals.mean(axis=0))
    assert np.array_equal(s.occupation_var, vals.var(axis=0, ddof=1))


class TestBatchedNsmEngine:
    """The lock-step nsm engine, over every id or over one, equals the scalar reference engine."""

    INITIAL = {"excited": None, "superposition": QubitState.superposition(0.6, 0.8j), "ground": QubitState.ground()}

    # groups of 64: the 200 trajectories run as three full lock-step groups and a partial one
    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("group", [64, lockstep.GROUP_SIZE])
    @pytest.mark.parametrize("initial", sorted(INITIAL))
    def test_ensemble_matches_scalar_trajectories(self, monkeypatch, initial, group, record_steps):
        monkeypatch.setattr(lockstep, "GROUP_SIZE", group)
        initial = self.INITIAL[initial]
        p = params(model="nsm", beta=1.5, t_max=3.0, n_traj=200, seed=99)
        bin_steps = 30
        records = [nsm_record(p, derive_stream(p.seed, i), initial, record_steps=True) for i in range(p.n_traj)]
        for i, ref in enumerate(records):
            rec = run_nsm_trajectory(p, derive_stream(p.seed, i), initial_state=initial, record_steps=record_steps)
            assert_same_record(rec, ref if record_steps else nsm_record(p, derive_stream(p.seed, i), initial))
        groups = spy_calls(monkeypatch, models, "_lockstep_nsm")
        s = run_decay_ensemble(p, initial_state=initial, bin_steps=bin_steps, record_steps=record_steps)
        assert len(groups) == -(-p.n_traj // group)
        assert_nsm_ensemble_holds(s, records, p, bin_steps, record_steps)
        if initial is None:
            assert 0 < s.n_censored < p.n_traj and s.drop_terminal.sum() < s.drop_terminal.size

    # gaps with gamma*gap > 37, whose drop rounds to 1.0 (stream (3, 23) has
    # one, see test_long_gap_drop_rounds_to_one); beta 0; a beta so small
    # that no fluctuation lands in the window; 30 fluctuations per decay.
    # No n_steps is a multiple of 7.
    NSM_CASES = {
        "unit": dict(beta=1.0, t_max=3.03),
        "long_gaps": dict(beta=0.1, t_max=80.0),
        "beta_zero": dict(beta=0.0, t_max=2.03),
        "tiny_beta": dict(beta=1e-300, t_max=2.07),
        "many": dict(beta=30.0, t_max=1.01),
    }
    # every 7th grid time up to 2.73, where STEP rows give way to fluctuations
    FORCED = (np.arange(1, 40) * 7 * 0.01).tolist()

    @settings(deadline=None, max_examples=40)
    @example(seed=3, stream_id=23, case="long_gaps", initial="excited", forced=False, record_steps=True, bin_steps=7)
    @example(seed=2**64 - 1, stream_id=2**64 - 1, case="unit", initial="superposition", forced=True, record_steps=True, bin_steps=1)
    @example(seed=0, stream_id=2**63, case="beta_zero", initial="excited", forced=False, record_steps=True, bin_steps=30)
    @example(seed=5, stream_id=0, case="tiny_beta", initial="ground", forced=False, record_steps=False, bin_steps=1000)
    @example(seed=9, stream_id=2**63, case="many", initial="superposition", forced=True, record_steps=False, bin_steps=7)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        case=st.sampled_from(sorted(NSM_CASES)),
        initial=st.sampled_from(sorted(INITIAL)),
        forced=st.booleans(),
        record_steps=st.booleans(),
        bin_steps=st.sampled_from([1, 7, 30, 1000]),
    )
    def test_nsm_runner_matches_reference_on_any_stream(
        self, seed, stream_id, case, initial, forced, record_steps, bin_steps
    ):
        p = params(model="nsm", n_traj=3, seed=seed, **self.NSM_CASES[case])
        initial = self.INITIAL[initial]
        forced = self.FORCED if forced else None
        stream = derive_stream(seed, stream_id)
        rec = run_nsm_trajectory(p, stream, initial, record_steps, forced)
        assert_same_record(rec, nsm_record(p, stream, initial, record_steps, forced))
        refs = [nsm_record(p, derive_stream(seed, i), initial, record_steps=True) for i in range(p.n_traj)]
        s = run_decay_ensemble(p, initial, bin_steps=bin_steps, record_steps=record_steps)
        assert_nsm_ensemble_holds(s, refs, p, bin_steps, record_steps)

    # draws replaced along the stream: zeros that force gap redraws, among
    # them the first gap's first two draws; and, under a beta so large that
    # u = 1 - 2**-53 gives a gap of 0, a zero gap, a zero u and a terminal
    # reduction of a superposition
    REDRAWS = {
        "zeros": (4.0, None, dict.fromkeys([0, 1, 6, 7, 9, 30], 0.0)),
        "zero_gap": (1e308, QubitState.superposition(0.6, 0.8), {0: 1.0 - 2.0**-53, 1: 0.0, 3: 0.5}),
    }

    @pytest.mark.parametrize("case", sorted(REDRAWS))
    def test_redrawn_gaps_keep_draw_positions(self, monkeypatch, case):
        beta, initial, values = self.REDRAWS[case]
        monkeypatch.setattr(lockstep, "philox_uniforms", patched_philox(lockstep.philox_uniforms, values))
        p = params(model="nsm", gamma=0.1, beta=beta, t_max=6.0, seed=12)
        for i in range(4):
            stream = derive_stream(p.seed, i)
            ref = nsm_record(p, stream, initial, record_steps=True, gen=PatchedGenerator(stream.generator(), values))
            assert_same_record(run_nsm_trajectory(p, stream, initial, record_steps=True), ref)
            assert len(ref.nsm_events) > (15 if case == "zeros" else 0)

    @pytest.mark.parametrize(
        "forced",
        [[0.0], [0.5, 0.5], [0.5, 0.4], [math.nan], [1.0, 6.0, 5.5]],
        ids=["zero", "repeat", "decrease", "nan", "bad_pair_past_t_max"],
    )
    def test_forced_times_must_increase_strictly_from_zero(self, forced):
        p = params(model="nsm", beta=1.0, t_max=5.0)
        for i in range(3):
            with pytest.raises(ValueError, match="strictly increasing from 0"):
                run_nsm_trajectory(p, derive_stream(0, i), fluctuation_times=forced)


class TestStreamCursors:
    """Draws read by position: each is its stream's draw there, and each Philox pair is evaluated once."""

    @staticmethod
    def spy_pairs(monkeypatch) -> list:
        pairs, real = [], lockstep.philox_uniforms

        def philox_uniforms(seed, ids, counters):
            i, c = np.broadcast_arrays(np.asarray(ids, dtype=np.uint64), np.asarray(counters, dtype=np.uint64))
            pairs.extend(zip(i.ravel().tolist(), c.ravel().tolist()))
            return real(seed, ids, counters)

        monkeypatch.setattr(lockstep, "philox_uniforms", philox_uniforms)
        return pairs

    def test_each_pair_is_evaluated_once_per_group(self, monkeypatch):
        pairs = self.spy_pairs(monkeypatch)
        p = params(model="nsm", beta=30.0, t_max=1.01, seed=7)
        models._lockstep_nsm(p, 1.0, p.seed, range(2**64 - 300, 2**64))
        decay_pairs = list(pairs)
        pairs.clear()
        p = ModelParams(gamma=0.5, dt=0.01, t_max=4.0, n_traj=1, seed=7, model="nsm", beta=8.0, omega_rabi=4.0)
        plan = rabi._driven_plan(p, rabi.DriveParams(omega_rabi=4.0), QubitState.ground())
        lockstep.joined_rounds(p.gamma, *rabi._lockstep_driven_nsm(plan, p.seed, range(300)))
        for requested, start in ((decay_pairs, 2**64 - 300), (pairs, 0)):
            # every stream, and windows slid past their first eight counters
            assert {i for i, _ in requested} == set(range(start, start + 300))
            assert max(c for _, c in requested) > 8
            assert len(set(requested)) == len(requested)

    @settings(deadline=None, max_examples=40)
    @example(seed=2**64 - 1, start=2**64 - 5, takes=[([True] * 5, 3)] * 90)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.one_of(st.sampled_from([0, 2**63 - 3, 2**64 - 5]), st.integers(0, 2**64 - 5)),
        takes=st.lists(st.tuples(st.lists(st.booleans(), min_size=5, max_size=5), st.integers(1, 3)), max_size=120),
    )
    def test_positions_read_are_the_stream_draws(self, seed, start, takes):
        ids = range(start, start + 5)
        gens = [derive_stream(seed, i).generator() for i in ids]
        with pytest.MonkeyPatch.context() as mp:
            pairs = self.spy_pairs(mp)
            cursors = lockstep.StreamCursors(seed, ids)
            for mask, need in takes:
                rows = np.flatnonzero(mask)
                assert cursors.take(rows, need).tolist() == [gens[j].random() for j in rows]
        # windows start empty, so any row taken evaluated pairs through the spy
        assert bool(pairs) == any(any(mask) for mask, _ in takes)
        assert len(set(pairs)) == len(pairs)


PHOTON_WEIGHT = QubitState(0.6, 0.0, 0.64)


@pytest.mark.parametrize("driven", [False, True], ids=["decay", "driven"])
@pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
def test_runner_and_ensemble_reject_photon_weight_alike(model, driven):
    p = params(model=model, beta=1.0, t_max=1.0, n_traj=4, omega_rabi=2.0)
    stream = derive_stream(0, 0)
    if driven:
        drive = rabi.DriveParams(omega_rabi=2.0)
        calls = (
            lambda: rabi.run_driven_trajectory(p, drive, stream, PHOTON_WEIGHT),
            lambda: rabi.run_driven_ensemble(p, drive, PHOTON_WEIGHT),
        )
    else:
        runner = {"qmop": run_qmop_trajectory, "swf": run_swf_trajectory, "nsm": run_nsm_trajectory}[model]
        calls = (lambda: runner(p, stream, PHOTON_WEIGHT), lambda: run_decay_ensemble(p, PHOTON_WEIGHT))
    messages = []
    for call in calls:
        with pytest.raises(ValueError, match="photon component present") as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


class TestEnsembleDeterminism:
    """How the engines split an ensemble into lock-step blocks changes no result."""

    @pytest.mark.parametrize("model,beta", [("qmop", 0.0), ("swf", 0.0), ("nsm", 1.5)])
    def test_block_size_does_not_change_results(self, monkeypatch, model, beta):
        p = params(model=model, beta=beta, t_max=40.0, n_traj=600, seed=1234)
        base = run_decay_ensemble(p, bin_steps=50)
        for size in (7, 256):
            with monkeypatch.context() as mp:
                # the block bound of each engine: trajectories per nsm group, counters per qmop/swf block
                if model == "nsm":
                    mp.setattr(lockstep, "GROUP_SIZE", size)
                    calls = spy_calls(mp, models, "_lockstep_nsm")
                else:
                    mp.setattr(models, "_LOCKSTEP_COUNTERS", size)
                    calls = spy_calls(mp, models, "philox_uniforms")
                other = run_decay_ensemble(p, bin_steps=50)
            if model == "nsm":
                assert len(calls) == -(-p.n_traj // size)
            else:  # each block of checks (ids as a column) evaluates at most `size` counters
                checks = [np.size(ids) * np.size(ctrs) for _, ids, ctrs in calls if np.ndim(ids) == 2]
                assert checks and max(checks) <= size
            assert np.array_equal(base.decay_times, other.decay_times, equal_nan=True)
            assert np.array_equal(base.events.t, other.events.t)
            assert kind_names(base.events) == kind_names(other.events)
            assert np.array_equal(base.occupation_mean, other.occupation_mean)


class TestDecayBlocks:
    """``run_decay_ensemble`` hands its blocks to ``on_block`` in order, and joins the same blocks into the summary."""

    @pytest.mark.parametrize("bin_steps", [None, 7])
    @pytest.mark.parametrize("model,beta", [("qmop", 0.0), ("swf", 0.0), ("nsm", 1.5), ("nsm", 0.0)])
    def test_blocks_join_into_the_summary(self, monkeypatch, model, beta, bin_steps):
        monkeypatch.setattr(models, "_LOCKSTEP_COUNTERS", 32)
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 32)
        p = params(model=model, beta=beta, t_max=2.0, n_traj=100, seed=17)
        blocks = []
        flags = run_decay_ensemble(p, bin_steps=bin_steps, record_steps=True, on_block=blocks.append)
        s = run_decay_ensemble(p, bin_steps=bin_steps, record_steps=True)
        assert flags == s.flags == ((models.NSM_BETA_ZERO_FLAG,) if model == "nsm" and beta == 0.0 else ())
        assert [b.ids for b in blocks] == [range(0, 32), range(32, 64), range(64, 96), range(96, 100)]
        assert np.array_equal(np.concatenate([b.decay_times for b in blocks]), s.decay_times, equal_nan=True)
        for name in ("traj_id", "t", "kind", "occupation_before", "occupation_after"):
            joined = np.concatenate([np.asarray(getattr(b.events, name)) for b in blocks])
            assert joined.tolist() == np.asarray(getattr(s.events, name)).tolist()
        for b in blocks:  # each block holds only its own trajectories' rows
            assert set(np.asarray(b.events.traj_id).tolist()) <= set(b.ids)
        if model == "nsm":
            assert np.concatenate([b.drop_samples for b in blocks]).tolist() == s.drop_samples.tolist()
        if bin_steps is None:
            assert all(b.occupation_bins is None for b in blocks)
            return
        # every block's bins are its rows of one (n_traj, n_bins) matrix, whose statistics the summary holds
        assert len({id(b.occupation_bins.base) for b in blocks}) == 1
        assert blocks[0].occupation_bins.base.shape == (p.n_traj, p.n_steps // bin_steps)
        bins = np.concatenate([b.occupation_bins for b in blocks])
        centers, mean, var, se = lockstep.bin_statistics(bins, bin_steps, p.dt)
        assert np.array_equal(centers, s.bin_centers)
        for got, want in ((mean, s.occupation_mean), (var, s.occupation_var), (se, s.occupation_se)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model,beta", [("qmop", 0.0), ("nsm", 1.0)])
    def test_joined_run_holds_no_block_beside_its_join(self, monkeypatch, model, beta):
        # 8 blocks: the run holds its bin matrix, and var's temporary of the same size, but no block's bins
        monkeypatch.setattr(models, "_LOCKSTEP_COUNTERS", 1024)
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 1024)
        run_decay_ensemble(params(model=model, beta=beta, t_max=20.0, n_traj=1024, seed=5), bin_steps=20)
        p = params(model=model, beta=beta, t_max=20.0, n_traj=8 * 1024, seed=5)
        tracemalloc.start()
        try:
            run_decay_ensemble(p, bin_steps=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = p.n_traj * (p.n_steps // 20) * 8
        assert peak < 2.5 * matrix, peak / matrix


class TestEncodedEventColumns:
    """Event columns drawn from a shared grid stay codes into it, and decode to the plain rows."""

    @pytest.mark.parametrize("record_steps", [False, True])
    @pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
    def test_grid_columns_are_codes(self, model, record_steps):
        p = params(model=model, beta=1.0, t_max=3.0, n_traj=200, seed=8)
        table = run_decay_ensemble(p, record_steps=record_steps).events
        encoded = {
            name for name in ("traj_id", "t", "occupation_before", "occupation_after")
            if isinstance(getattr(table, name), EncodedColumn)
        }
        if model == "nsm":  # STEP occupations are per trajectory; a fluctuation's after is 1 or 0
            assert encoded == ({"traj_id", "t"} if record_steps else {"occupation_after"})
        else:
            assert encoded == {"occupation_before", "occupation_after"} | ({"traj_id", "t"} if record_steps else set())
            assert len(table.occupation_before.values) == p.n_steps + 1
        if record_steps:  # codes into the step grid and arange(n), plus the few terminal rows
            assert len(table.t.values) < len(table) // 4
            assert len(table.traj_id.values) < len(table) // 4

    @staticmethod
    def column(kind, n, rng):
        values = rng.standard_normal(300)  # more values than int8 codes reach
        if kind == "plain":
            return rng.standard_normal(n)
        if kind == "int8":
            return EncodedColumn(rng.integers(0, 100, n).astype(np.int8), values[:100])
        return EncodedColumn(rng.integers(0, 300, n), values)

    @pytest.mark.parametrize("kinds", [(a, b) for a in ("plain", "int8", "int64") for b in ("plain", "int8", "int64")])
    @pytest.mark.parametrize("sizes", [(5, 40), (40, 5), (0, 3)])
    def test_merge_decodes_to_the_plain_merge(self, kinds, sizes):
        rng = np.random.default_rng(sum(sizes))
        first = [np.sort(rng.integers(0, 4, sizes[0])), self.column(kinds[0], sizes[0], rng)]
        second = [np.sort(rng.integers(0, 4, sizes[1])), self.column(kinds[1], sizes[1], rng)]
        merged = lockstep.merge_rows(first, second)
        plain = lockstep.merge_rows([np.asarray(c) for c in first], [np.asarray(c) for c in second])
        for got, want in zip(merged, plain):
            assert np.asarray(got).view(np.int64).tolist() == want.view(np.int64).tolist()
        longer = max(first[1], second[1], key=len)
        assert isinstance(merged[1], EncodedColumn) == isinstance(longer, EncodedColumn)

    @pytest.mark.parametrize("kinds", [("plain", "int8", "int64"), ("int64", "plain", "int64"), ("plain",) * 3])
    def test_concatenate_decodes_to_the_plain_concatenation(self, kinds):
        rng = np.random.default_rng(len(kinds[0]))
        pieces = [self.column(kind, n, rng) for kind, n in zip(kinds, (30, 0, 45))]
        joined = lockstep.concatenate(pieces)
        want = np.concatenate([np.asarray(c) for c in pieces])
        assert np.asarray(joined).view(np.int64).tolist() == want.view(np.int64).tolist()
        assert isinstance(joined, EncodedColumn) == isinstance(pieces[2], EncodedColumn)

    def test_merge_shares_one_values_object(self):
        values = np.linspace(0.0, 1.0, 7)
        a = EncodedColumn(np.array([0, 6]), values)
        b = EncodedColumn(np.array([3], dtype=np.int8), values)
        merged = lockstep.merge_rows([np.array([0, 2]), a], [np.array([1]), b])
        assert merged[1].values is values
        assert merged[1].tolist() == [0.0, 0.5, 1.0]
