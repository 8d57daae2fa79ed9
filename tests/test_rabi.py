import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engines import (
    PatchedGenerator,
    assert_same_record,
    driven_nsm_record,
    driven_step_record,
    patched_philox,
    spy_calls,
)
from scipy.stats import chi2 as chi2_dist

from qdecay import lockstep, rabi
from qdecay.core import EventKind, ModelParams, QubitState, TrajectoryEvent, TrajectoryRecord, derive_stream
from qdecay.rabi import (
    DriveParams,
    DropCounts,
    EmissionCounts,
    drop_histogram_from_samples,
    fluorescence_fluctuation_histogram,
    fluorescence_from_times,
    fluorescence_intensity,
    rabi_frequency,
    rabi_occupation_undamped,
    run_driven_ensemble,
    run_driven_trajectory,
    torrey_occupation,
)


def driven_params(model="qmop", gamma=0.2, omega=2.0, dt=0.0125, t_max=25.0, **kw):
    return ModelParams(
        gamma=gamma, dt=dt, t_max=t_max, model=model, omega_rabi=omega, **kw
    )


class TestAnalyticForms:
    def test_undamped_zero_time(self):
        assert rabi_occupation_undamped(2.0, 0.0) == 0.0

    def test_undamped_quarter_period(self):
        assert rabi_occupation_undamped(2.0, math.pi / 4) == pytest.approx(1.0)

    def test_undamped_trig_oracle(self):
        assert rabi_occupation_undamped(2.0, 0.3) == pytest.approx(math.sin(0.6) ** 2)

    def test_frequency_parallel(self):
        assert rabi_frequency((1, 0, 0), (1, 0, 0)) == 1.0

    def test_frequency_orthogonal(self):
        assert rabi_frequency((1, 0, 0), (0, 1, 0)) == 0.0

    def test_frequency_dot_oracle(self):
        assert rabi_frequency((1, 2, 0), (3, -1, 5)) == 1.0

    def test_torrey_zero_time(self):
        assert torrey_occupation(2.0, 0.2, 0.0) == 0.0

    def test_torrey_limit_half(self):
        assert torrey_occupation(2.0, 0.2, 1e4) == pytest.approx(0.5, abs=1e-6)

    def test_torrey_undamped_limit_matches_half_frequency_form(self):
        # factor-two convention: zero-damping limit equals sin^2(W t / 2),
        # i.e. the sin^2(W t) form evaluated at half the drive frequency
        ts = np.linspace(0.0, 7.0, 113)
        lhs = torrey_occupation(3.0, 0.0, ts)
        rhs = rabi_occupation_undamped(1.5, ts)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_torrey_clamped(self):
        vals = torrey_occupation(1.0, 0.5, np.linspace(0, 50, 5000))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_drive_params_consistency(self):
        d = DriveParams(dipole=(1, 2, 0), field=(3, -1, 5))
        assert d.omega_rabi == 1.0
        with pytest.raises(ValueError, match="inconsistent drive"):
            DriveParams(omega_rabi=2.0, dipole=(1, 0, 0), field=(1, 0, 0))
        with pytest.raises(ValueError, match="omega_rabi is required"):
            DriveParams()
        with pytest.raises(ValueError, match="together"):
            DriveParams(omega_rabi=1.0, dipole=(1, 0, 0))


class TestDrivenTrajectory:
    def test_no_drive_no_dynamics(self):
        p = driven_params(omega=0.0, gamma=0.2, t_max=10.0)
        rec = run_driven_trajectory(p, DriveParams(omega_rabi=0.0), derive_stream(1, 0), record_steps=True)
        assert not rec.events or all(ev.kind is EventKind.STEP for ev in rec.events)
        assert np.all(rec.occupation_series == 0.0)

    def test_pure_unitary_limit(self):
        p = driven_params(gamma=0.0, omega=2.0, t_max=10.0)
        rec = run_driven_trajectory(p, DriveParams(omega_rabi=2.0), derive_stream(1, 1), record_steps=True)
        ts = np.arange(p.n_steps + 1) * p.dt
        assert np.max(np.abs(rec.occupation_series - np.sin(ts) ** 2)) < 1e-6

    def test_emissions_non_terminal(self):
        p = driven_params(gamma=0.5, omega=3.0, dt=0.01, t_max=60.0, seed=4)
        rec = run_driven_trajectory(p, DriveParams(omega_rabi=3.0), derive_stream(4, 2))
        emissions = [ev for ev in rec.events if ev.kind is EventKind.PHOTON_DETECTION]
        assert len(emissions) > 1  # keeps being driven after a jump
        times = [ev.t for ev in emissions]
        assert times == sorted(times)
        assert rec.decay_time is None

    def test_occupation_stays_physical(self):
        p = driven_params(model="nsm", gamma=0.4, beta=0.8, omega=4.0, dt=0.01, t_max=30.0)
        for i in range(40):
            rec = run_driven_trajectory(p, DriveParams(omega_rabi=4.0), derive_stream(9, i), record_steps=True)
            assert np.all(rec.occupation_series >= -1e-12)
            assert np.all(rec.occupation_series <= 1.0 + 1e-12)

    def test_step_guard(self):
        p = driven_params(omega=10.0, dt=0.0125)
        with pytest.raises(ValueError, match="step too large"):
            run_driven_trajectory(p, DriveParams(omega_rabi=10.0), derive_stream(0, 0))

    def test_runner_rejects_a_drive_that_is_not_the_params(self):
        for params_omega, drive_omega in ((5.0, 2.0), (2.0, 0.0)):
            p = driven_params(omega=params_omega)
            with pytest.raises(ValueError, match=f"params.omega_rabi = {params_omega} but drive.omega_rabi = {drive_omega}"):
                run_driven_trajectory(p, DriveParams(omega_rabi=drive_omega), derive_stream(0, 0))
        # params without a drive (omega_rabi 0) take the given one
        drive = DriveParams(omega_rabi=2.0)
        rec = run_driven_trajectory(driven_params(omega=0.0), drive, derive_stream(0, 1), record_steps=True)
        assert_same_record(rec, run_driven_trajectory(driven_params(), drive, derive_stream(0, 1), record_steps=True))

    def test_nsm_gap_bookkeeping(self):
        p = driven_params(model="nsm", gamma=0.5, beta=1.0, omega=4.0, dt=0.01, t_max=30.0)
        rec = run_driven_trajectory(p, DriveParams(omega_rabi=4.0), derive_stream(11, 3))
        assert rec.nsm_events
        t_prev = 0.0
        for ev in rec.nsm_events:
            assert ev.gap == pytest.approx(ev.t - t_prev, abs=1e-12)
            assert ev.a_before == pytest.approx(-math.expm1(-p.gamma * ev.gap), abs=1e-12)
            t_prev = ev.t

    def test_nsm_long_gap_drop_rounds_to_one(self):
        # gamma*gap > ~37.4 makes 1 - exp(-gamma*gap) exactly 1.0 in doubles
        p = driven_params(model="nsm", gamma=1.0, beta=0.1, omega=0.5, dt=0.01, t_max=80.0)
        rec = run_driven_trajectory(p, DriveParams(omega_rabi=0.5), derive_stream(3, 23))
        assert any(ev.a_before == 1.0 for ev in rec.nsm_events)


class TestDrivenEnsemble:
    def test_mean_occupation_approaches_half(self):
        p = driven_params(gamma=0.5, omega=5.0, dt=0.01, t_max=30.0, n_traj=1500, seed=2)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=5.0), bin_steps=50)
        tail = ens.bin_centers > 15.0
        tail_mean = ens.occupation_mean[tail].mean()
        assert abs(tail_mean - 0.5) < 0.02

    def test_stationary_intensity(self):
        # emission rate tends to gamma * 1/2 in the saturated regime
        g = 0.5
        p = driven_params(gamma=g, omega=5.0, dt=0.01, t_max=30.0, n_traj=2000, seed=6)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=5.0), bin_steps=50)
        window = ens.emission_times > 10.0
        count = int(window.sum())
        width = p.t_max - 10.0
        rate = count / (p.n_traj * width)
        se = math.sqrt(count) / (p.n_traj * width)
        assert abs(rate - g / 2.0) < 3 * se + 0.002  # saturation sits just below 1/2

    def test_nsm_emission_rate_tracks_occupation(self):
        # stationary windows: emission rate equals gamma * mean occupation;
        # the identity needs the fluctuation ages to have equilibrated
        g, b, w = 0.5, 0.5, 10.0
        p = driven_params(model="nsm", gamma=g, beta=b, omega=w, dt=0.005, t_max=60.0, n_traj=1500, seed=17)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=w), bin_steps=400)
        width = ens.bin_centers[1] - ens.bin_centers[0]
        edges = np.concatenate([ens.bin_centers - width / 2, [ens.bin_centers[-1] + width / 2]])
        counts, _ = np.histogram(ens.emission_times, bins=edges)
        rate = counts / (p.n_traj * width)
        rate_se = np.sqrt(np.maximum(counts, 1.0)) / (p.n_traj * width)
        target = g * ens.occupation_mean
        target_se = g * ens.occupation_se
        stationary = ens.bin_centers > 15.0
        z = np.abs(rate - target) / np.sqrt(rate_se**2 + target_se**2)
        assert np.all(z[stationary] <= 3.5)

    @pytest.mark.parametrize("model", ["qmop", "nsm"])
    def test_ensemble_matches_scalar_trajectories(self, model):
        p = driven_params(model=model, gamma=0.5, beta=0.8, omega=4.0, dt=0.01, t_max=8.0, n_traj=120, seed=404)
        drive = DriveParams(omega_rabi=4.0)
        bin_steps = 40
        # the runner is the engine over one id: both it and the ensemble are
        # checked against the scalar reference loop
        reference = driven_nsm_record if model == "nsm" else driven_step_record
        records = [reference(p, drive, derive_stream(p.seed, i), record_steps=True) for i in range(p.n_traj)]
        for i, ref in enumerate(records):
            assert_same_record(run_driven_trajectory(p, drive, derive_stream(p.seed, i), record_steps=True), ref)
        ens = run_driven_ensemble(p, drive, bin_steps=bin_steps)
        assert_ensemble_holds(ens, records, p, bin_steps)
        assert ens.emission_times.size > 0 and (ens.drop_all.size > 0) == (model == "nsm")

    # three fluctuations per step on average; gaps with gamma*gap > 37, whose
    # drop rounds to 1.0 (stream (3, 23) has one, see
    # test_nsm_long_gap_drop_rounds_to_one); a beta so small that no
    # fluctuation lands in the window.  No n_steps is a multiple of 7.
    NSM_CASES = {
        "several_per_step": dict(gamma=0.5, beta=300.0, omega=4.0, dt=0.01, t_max=0.53),
        "long_gaps": dict(gamma=1.0, beta=0.1, omega=0.5, dt=0.01, t_max=80.0),
        "tiny_beta": dict(gamma=0.5, beta=1e-300, omega=4.0, dt=0.01, t_max=4.07),
    }

    @settings(deadline=None, max_examples=30)
    @example(seed=2**64 - 1, stream_id=2**64 - 1, case="several_per_step", bin_steps=1, record_steps=True)
    @example(seed=3, stream_id=23, case="long_gaps", bin_steps=7, record_steps=False)
    @example(seed=0, stream_id=2**63, case="long_gaps", bin_steps=40, record_steps=True)
    @example(seed=5, stream_id=0, case="tiny_beta", bin_steps=10**6, record_steps=True)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        case=st.sampled_from(sorted(NSM_CASES)),
        bin_steps=st.sampled_from([1, 7, 40, 10**6]),
        record_steps=st.booleans(),
    )
    def test_nsm_matches_reference_on_any_stream(self, seed, stream_id, case, bin_steps, record_steps):
        p = driven_params(model="nsm", n_traj=3, seed=seed, **self.NSM_CASES[case])
        drive = DriveParams(omega_rabi=p.omega_rabi)
        stream = derive_stream(seed, stream_id)
        rec = run_driven_trajectory(p, drive, stream, record_steps=record_steps)
        assert_same_record(rec, driven_nsm_record(p, drive, stream, record_steps=record_steps))
        refs = [driven_nsm_record(p, drive, derive_stream(seed, i), record_steps=True) for i in range(p.n_traj)]
        assert_ensemble_holds(run_driven_ensemble(p, drive, bin_steps=bin_steps), refs, p, bin_steps)

    # many emissions with some at a trajectory's last step; the README rabi
    # drive; no drive, so nothing is emitted.  No n_steps is a multiple of 7.
    STEP_CASES = {
        "strong": dict(gamma=5.0, omega=5.0, dt=0.01, t_max=0.53),
        "readme": dict(gamma=0.2, omega=2.0, dt=0.0125, t_max=4.05),
        "undriven": dict(gamma=0.5, omega=0.0, dt=0.01, t_max=1.01),
    }
    INITIAL = {"ground": None, "excited": QubitState.excited(), "superposition": QubitState.superposition(0.6, 0.8j)}

    @settings(deadline=None, max_examples=30)
    @example(model="qmop", seed=2**64 - 1, stream_id=2**64 - 1, case="strong", initial="excited", bin_steps=1, record_steps=True)
    @example(model="swf", seed=0, stream_id=2**63, case="readme", initial="superposition", bin_steps=7, record_steps=False)
    @example(model="qmop", seed=21, stream_id=0, case="undriven", initial="ground", bin_steps=40, record_steps=True)
    # an emission at the last step: trajectory 1 of seed 29, trajectory 2 of seed 1
    @example(model="qmop", seed=29, stream_id=1, case="strong", initial="excited", bin_steps=7, record_steps=True)
    @example(model="swf", seed=1, stream_id=2, case="strong", initial="ground", bin_steps=10**6, record_steps=True)
    @given(
        model=st.sampled_from(["qmop", "swf"]),
        seed=st.integers(0, 2**64 - 1),
        stream_id=st.one_of(st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1)),
        case=st.sampled_from(sorted(STEP_CASES)),
        initial=st.sampled_from(sorted(INITIAL)),
        bin_steps=st.sampled_from([1, 7, 40, 10**6]),
        record_steps=st.booleans(),
    )
    def test_step_models_match_reference_on_any_stream(self, model, seed, stream_id, case, initial, bin_steps, record_steps):
        p = driven_params(model=model, n_traj=3, seed=seed, **self.STEP_CASES[case])
        drive, state = DriveParams(omega_rabi=p.omega_rabi), self.INITIAL[initial]
        stream = derive_stream(seed, stream_id)
        rec = run_driven_trajectory(p, drive, stream, initial_state=state, record_steps=record_steps)
        assert_same_record(rec, driven_step_record(p, drive, stream, state, record_steps=record_steps))
        refs = [driven_step_record(p, drive, derive_stream(seed, i), state, record_steps=True) for i in range(p.n_traj)]
        ens = run_driven_ensemble(p, drive, initial_state=state, bin_steps=bin_steps)
        assert_ensemble_holds(ens, refs, p, bin_steps)

    def test_nsm_redrawn_gaps_keep_draw_positions(self, monkeypatch):
        # zero draws force the gap redraw: the first gap's first two draws,
        # and draws further along the stream, whatever they are used for
        zeroed = dict.fromkeys([0, 1, 6, 7, 9, 30], 0.0)
        monkeypatch.setattr(lockstep, "philox_uniforms", patched_philox(lockstep.philox_uniforms, zeroed))
        p = driven_params(model="nsm", gamma=0.5, beta=4.0, omega=4.0, dt=0.01, t_max=3.0, seed=12)
        drive = DriveParams(omega_rabi=4.0)
        for i in range(4):
            stream = derive_stream(p.seed, i)
            ref = driven_nsm_record(p, drive, stream, record_steps=True, gen=PatchedGenerator(stream.generator(), zeroed))
            assert_same_record(run_driven_trajectory(p, drive, stream, record_steps=True), ref)
            assert len(ref.nsm_events) > 5

    def test_gap_redraw_on_zero_gap(self):
        # u == 1 - 2**-53 gives a gap that underflows to 0 under a huge beta
        beta = 1e308
        rows = [[0.0, 0.25], [1.0 - 2.0**-53, 0.0, 0.5], [0.75]]

        class Rows:
            def take(self, which, need):
                return np.array([rows[j].pop(0) for j in which.tolist()])

        expected = [-math.log(0.25) / beta, -math.log(0.5) / beta, -math.log(0.75) / beta]
        assert lockstep._fluctuation_gaps(Rows(), np.arange(3), beta).tolist() == expected
        assert rows == [[], [], []]

    # groups of 64: several lock-step groups in one run
    @pytest.mark.parametrize("group", [64, lockstep.GROUP_SIZE])
    def test_ensemble_without_bins(self, monkeypatch, group):
        p = driven_params(model="nsm", gamma=0.5, beta=0.8, omega=4.0, dt=0.01, t_max=8.0, n_traj=300, seed=9)
        drive = DriveParams(omega_rabi=4.0)
        one_group = run_driven_ensemble(p, drive, bin_steps=20)
        monkeypatch.setattr(lockstep, "GROUP_SIZE", group)
        groups = spy_calls(monkeypatch, rabi, "_lockstep_driven_nsm")
        with_bins = run_driven_ensemble(p, drive, bin_steps=20)
        without = run_driven_ensemble(p, drive, bin_steps=None)
        assert len(groups) == 2 * -(-p.n_traj // group)
        for name in ("emission_times", "drop_all", "drop_emission"):
            assert np.array_equal(getattr(without, name), getattr(with_bins, name))
            assert np.array_equal(getattr(with_bins, name), getattr(one_group, name))
        assert np.array_equal(with_bins.occupation_mean, one_group.occupation_mean)
        assert np.array_equal(with_bins.occupation_se, one_group.occupation_se)
        assert without.bin_centers is None and without.occupation_mean is None and without.occupation_se is None
        assert without.emission_times.size > 0
        # a consumer gets each group's emissions in id order, as the join has them bit for bit, and they are not kept
        for bin_steps in (20, None):
            handed = []
            streamed = run_driven_ensemble(p, drive, bin_steps=bin_steps, on_group=handed.append)
            assert [g.ids for g in handed] == [range(lo, min(lo + group, p.n_traj)) for lo in range(0, p.n_traj, group)]
            for name in ("emission_times", "drop_emission"):
                joined = np.concatenate([getattr(g, name) for g in handed])
                assert joined.dtype == np.float64 and joined.tobytes() == getattr(with_bins, name).tobytes()
            assert streamed.emission_times.size == 0 and streamed.drop_all is None and streamed.drop_emission is None
        assert streamed.bin_centers is None
        streamed = run_driven_ensemble(p, drive, bin_steps=20, on_group=lambda g: None)
        assert streamed.occupation_mean.tobytes() == with_bins.occupation_mean.tobytes()
        assert streamed.occupation_se.tobytes() == with_bins.occupation_se.tobytes()
        assert np.array_equal(streamed.bin_centers, with_bins.bin_centers)

    def test_qmop_groups_hand_over_no_drops(self, monkeypatch):
        p = driven_params(gamma=0.5, omega=4.0, dt=0.01, t_max=4.0, n_traj=150, seed=9)
        monkeypatch.setattr(lockstep, "GROUP_SIZE", 64)
        handed = []
        streamed = run_driven_ensemble(p, DriveParams(omega_rabi=4.0), bin_steps=None, on_group=handed.append)
        assert [g.ids for g in handed] == [range(0, 64), range(64, 128), range(128, 150)]
        assert all(g.drop_emission.size == 0 for g in handed)
        joined = run_driven_ensemble(p, DriveParams(omega_rabi=4.0), bin_steps=None)
        times = np.concatenate([g.emission_times for g in handed])
        assert times.tobytes() == joined.emission_times.tobytes() and joined.emission_times.size
        assert streamed.emission_times.size == 0

    @pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
    def test_ensemble_rejects_a_drive_that_is_not_the_params(self, model):
        p = driven_params(model=model, beta=0.5, omega=5.0, dt=0.01, t_max=1.0, n_traj=4)
        for on_group in (None, lambda g: None):
            with pytest.raises(ValueError, match="params.omega_rabi = 5.0 but drive.omega_rabi = 4.0"):
                run_driven_ensemble(p, DriveParams(omega_rabi=4.0), on_group=on_group)

    @pytest.mark.parametrize("model", ["qmop", "swf", "nsm"])
    def test_plan_holds_one_live_table(self, model):
        # the emission check of each step under qmop/swf, the photon weight at each grid point under nsm
        p = driven_params(model=model, beta=0.5, t_max=2.0)
        plan = rabi._driven_plan(p, DriveParams(omega_rabi=p.omega_rabi), None)
        assert [f.name for f in dataclasses.fields(plan)] == ["params", "occ", "live"]  # no jump_prob or photon_w
        assert plan.occ.shape == (3, p.n_steps + 1)
        assert plan.live.shape == (3, p.n_steps + 1 if model == "nsm" else p.n_steps)
        assert plan.live.flags.owndata and plan.live[:, 1:].all() and plan.occ.flags.owndata

    def test_streamed_nsm_group_keeps_no_column_per_fluctuation(self):
        # one lock-step group without bins keeps its emission rows (about one
        # fluctuation in seven emits here) and the plan's per-step tables,
        # which a longer t_max also grows and which are left out; a single
        # float64 column per fluctuation would add 8 B each
        def traced(t_max):
            p = driven_params(model="nsm", beta=0.5, t_max=t_max, n_traj=lockstep.GROUP_SIZE, seed=21)
            drive = DriveParams(omega_rabi=p.omega_rabi)
            plan = rabi._driven_plan(p, drive, None)
            tables = plan.occ.nbytes + plan.live.nbytes
            n_fluct = run_driven_ensemble(p, drive, bin_steps=None).drop_all.size
            tracemalloc.start()
            try:
                run_driven_ensemble(p, drive, bin_steps=None, on_group=lambda g: None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return n_fluct, peak - tables

        (n_short, short), (n_long, long) = traced(25.0), traced(50.0)
        assert n_long > 1.9 * n_short
        assert (long - short) / (n_long - n_short) < 8.0, (long - short) / (n_long - n_short)

    def test_runner_takes_only_rngstreams(self):
        drive = DriveParams(omega_rabi=4.0)
        for model in ("qmop", "swf", "nsm"):
            p = driven_params(model=model, gamma=0.5, beta=0.8, omega=4.0, dt=0.01, t_max=1.0)
            with pytest.raises(TypeError, match="derive_stream"):
                run_driven_trajectory(p, drive, derive_stream(0, 0).generator())
            with pytest.raises(TypeError, match="derive_stream"):
                run_driven_trajectory(p, drive, np.random.default_rng(0))


def assert_ensemble_holds(ens, records, p, bin_steps):
    """The ensemble's emissions, drops and bins are those of the records, in trajectory order."""
    emitted = [[ev.t for ev in r.events if ev.kind is EventKind.PHOTON_DETECTION] for r in records]
    assert ens.emission_times.tolist() == [t for times in emitted for t in times]
    assert ens.drop_all.tolist() == [ev.a_before for r in records for ev in r.nsm_events]
    assert ens.drop_emission.tolist() == [
        ev.a_before for r, times in zip(records, emitted) for ev in r.nsm_events if ev.t in times
    ]
    edges = np.arange(p.n_steps // bin_steps + 1) * bin_steps
    vals = np.array([np.add.reduceat(r.occupation_series[: p.n_steps], edges[:-1]) / bin_steps for r in records])
    assert np.array_equal(ens.occupation_mean, vals.mean(axis=0))
    if len(records) > 1:
        assert np.array_equal(ens.occupation_se, np.sqrt(vals.var(axis=0, ddof=1) / len(records)))


def _record_with_emissions(traj_id, times, t_pad=None):
    events = tuple(TrajectoryEvent(t, EventKind.PHOTON_DETECTION, 1.0, 0.0) for t in times)
    if t_pad is not None:
        events = events + (TrajectoryEvent(t_pad, EventKind.STEP, 0.0, 0.0),)
    return TrajectoryRecord(traj_id, events)


class TestFluorescence:
    def test_no_emissions_all_zero(self):
        recs = [_record_with_emissions(i, [], t_pad=1.0) for i in range(3)]
        series = fluorescence_intensity(recs, gamma=1.0, bin_width=0.5)
        assert np.all(series.intensity == 0.0)

    def test_single_emission_counting(self):
        recs = [_record_with_emissions(0, [0.2], t_pad=0.5)]
        series = fluorescence_intensity(recs, gamma=1.0, bin_width=0.5)
        assert series.intensity[0] == pytest.approx(2.0)
        assert series.se[0] == pytest.approx(2.0)

    def test_empty_ensemble(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            fluorescence_intensity([], gamma=1.0, bin_width=0.5)

    @pytest.mark.parametrize(
        "times,bin_width,n_bins",
        [
            ([1.0, 2.2], 0.5, 5),  # round(2.2 / 0.5) bins end at 2.0
            ([math.nextafter(0.9, 1.0)], 0.1, 10),  # 9 * 0.1 is 0.9 < t, though t / 0.1 is 9.0
        ],
    )
    def test_bins_reach_the_last_emission(self, times, bin_width, n_bins):
        series = fluorescence_intensity([_record_with_emissions(0, times)], gamma=1.0, bin_width=bin_width)
        assert series.intensity.size == n_bins
        assert series.intensity.sum() * bin_width == pytest.approx(len(times))

    def test_from_times_matches_record_path(self):
        times = [0.3, 0.7, 1.4]
        recs = [_record_with_emissions(0, times, t_pad=2.0)]
        a = fluorescence_intensity(recs, gamma=1.0, bin_width=0.5)
        b = fluorescence_from_times(np.array(times), 1, 0.5, 2.0)
        assert np.array_equal(a.intensity, b.intensity)

    def test_counts_added_in_parts_are_the_one_shot_counts(self):
        rng = np.random.default_rng(4)
        bin_width, t_max = 0.25, 10.0
        edges = np.arange(41) * bin_width
        # times at and beside every edge, and past the last one
        times = np.concatenate([rng.random(5000) * t_max, edges, np.nextafter(edges, 20.0), np.nextafter(edges, -1.0), [10.5]])
        times = times[times >= 0.0]
        whole = fluorescence_from_times(times, 7, bin_width, t_max)
        counts = EmissionCounts(bin_width, t_max)
        for part in np.split(times, [0, 7, 7, 2000, 4093]):
            counts.add(part)
        series = counts.series(7)
        for name in ("bin_centers", "intensity", "se"):
            assert getattr(series, name).tobytes() == getattr(whole, name).tobytes()
        assert counts.counts.dtype == np.int64 and counts.counts.sum() == (times <= t_max).sum()
        assert counts.n_emissions == times.size > counts.counts.sum()

    def test_counts_reject_bad_width_or_ensemble(self):
        with pytest.raises(ValueError, match="bin_width"):
            EmissionCounts(0.0, 1.0)
        with pytest.raises(ValueError, match="empty ensemble"):
            EmissionCounts(0.5, 1.0).series(0)


class TestDropHistogram:
    def test_counts_added_in_parts_are_the_counts_of_the_join(self):
        rng = np.random.default_rng(3)
        edges = np.linspace(0.0, 1.0, 21)
        samples = np.concatenate([rng.random(5000), edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)])
        samples = samples[(samples >= 0.0) & (samples <= 1.0)]
        whole = drop_histogram_from_samples(samples, 0.5, 0.8, 0.05)
        counts = DropCounts(0.05)
        for part in np.split(samples, [0, 7, 7, 2000, 4093]):
            counts.add(part)
        hist = counts.histogram(0.5, 0.8)
        assert hist.counts.tolist() == whole.counts.tolist() and hist.n_samples == samples.size
        assert hist.a_centers.tobytes() == whole.a_centers.tobytes()
        assert hist.density_analytic.tobytes() == whole.density_analytic.tobytes()

    def test_bad_bin_width_or_gamma(self):
        with pytest.raises(ValueError, match="bin_width"):
            drop_histogram_from_samples(np.array([0.5]), 0.0, 0.8, 1.5)
        with pytest.raises(ValueError, match="gamma"):
            drop_histogram_from_samples(np.array([0.5]), 0.0, 0.8, 0.05)

    def test_all_events_follow_drop_law(self):
        # collected over every fluctuation the drops follow r(1-a)^(r-1);
        # beta*t_max is large so window censoring of the last gap is negligible
        g = b = 0.5
        p = driven_params(model="nsm", gamma=g, beta=b, omega=10.0, dt=0.005, t_max=300.0, n_traj=500, seed=7)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=10.0), bin_steps=100)
        a = ens.drop_all
        assert a.size > 50_000
        counts, edges = np.histogram(a, bins=20, range=(0.0, 1.0))
        r = b / g
        expected = a.size * ((1 - edges[:-1]) ** r - (1 - edges[1:]) ** r)
        x2 = float(np.sum((counts - expected) ** 2 / expected))
        assert x2 < chi2_dist.ppf(0.99, 19)

    def test_emission_conditioning_biases_against_small_drops(self):
        # the probability that a fluctuation emits grows with the gap, so the
        # emission-conditioned histogram is depleted at small a relative to
        # the bare drop law
        g = b = 0.5
        p = driven_params(model="nsm", gamma=g, beta=b, omega=10.0, dt=0.005, t_max=100.0, n_traj=300, seed=8)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=10.0), bin_steps=100)
        hist = drop_histogram_from_samples(ens.drop_emission, g, b, 0.05)
        small_a = hist.density_empirical[:4].mean()
        analytic = hist.density_analytic[:4].mean()
        assert small_a < 0.6 * analytic

    def test_fast_fluctuations_concentrate_near_zero(self):
        g, b = 0.5, 10.0
        p = driven_params(model="nsm", gamma=g, beta=b, omega=10.0, dt=0.005, t_max=40.0, n_traj=300, seed=9)
        ens = run_driven_ensemble(p, DriveParams(omega_rabi=10.0), bin_steps=100)
        assert np.mean(ens.drop_all < 0.1) > 0.8

    def test_record_interface_collects_emission_drops(self):
        p = driven_params(model="nsm", gamma=0.5, beta=0.5, omega=4.0, dt=0.01, t_max=60.0, seed=10)
        recs = [
            run_driven_trajectory(p, DriveParams(omega_rabi=4.0), derive_stream(10, i))
            for i in range(60)
        ]
        hist = fluorescence_fluctuation_histogram(recs, gamma=0.5, beta=0.5, bin_width=0.05)
        assert hist.n_samples > 0
        assert hist.density_analytic[0] == pytest.approx(1.0)
        both = fluorescence_fluctuation_histogram(
            recs, gamma=0.5, beta=0.5, bin_width=0.05, events="all"
        )
        assert both.n_samples == sum(len(r.nsm_events) for r in recs)
        assert both.n_samples > hist.n_samples
        with pytest.raises(ValueError, match="events"):
            fluorescence_fluctuation_histogram(recs, gamma=0.5, beta=0.5, events="nope")

    def test_wrong_model(self):
        p = driven_params(gamma=0.5, omega=4.0, dt=0.01, t_max=10.0, seed=11)
        recs = [
            run_driven_trajectory(p, DriveParams(omega_rabi=4.0), derive_stream(11, i))
            for i in range(5)
        ]
        with pytest.raises(ValueError, match="wrong model"):
            fluorescence_fluctuation_histogram(recs, gamma=0.5, beta=0.5)

    def test_empty(self):
        with pytest.raises(ValueError, match="empty ensemble"):
            fluorescence_fluctuation_histogram([], gamma=0.5, beta=0.5)
