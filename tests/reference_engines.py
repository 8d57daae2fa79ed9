"""Scalar reference engines: independent oracles for the batched engines in ``src/``.

Each one reads its draws from a plain ``numpy.random.Generator`` in the
order of the reproducibility contract (the ``qdecay.models`` and
``qdecay.rabi`` docstrings, and ``qdecay.lockstep`` for the part of the nsm
order the two share), one trajectory at a time, and builds the record's
events with a Python loop.
"""

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from qdecay.core import EventKind, Model, ModelParams, QubitState, TrajectoryEvent, TrajectoryRecord, normalize
from qdecay.homodyne import NoiseModel, point_process_increments, white_noise_increments
from qdecay.models import (
    NSM_BETA_ZERO_FLAG,
    NsmEvent,
    NsmOutcome,
    _fluctuation_gap,
    _step_plan,
    _StepPlan,
)
from qdecay.rabi import _driven_plan, _DrivenPlan


def _truncated_exponential_time(rate: float, width: float, v: float) -> float:
    """Inverse-CDF sample of Exp(rate) conditioned on (0, width], v in [0, 1)."""
    if rate <= 0.0:
        return (v if v > 0.0 else 0.5) * width
    q = -math.expm1(-rate * width)
    s = -math.log1p(-v * q) / rate
    # guard against rounding at the interval ends
    return min(max(s, math.ulp(0.0)), width)


def _single_step_decay(plan: _StepPlan, gen) -> Tuple[int, float]:
    """Run one step-based trajectory; returns (jump_step, decay_time).

    ``jump_step`` is -1 when the trajectory survives to t_max (decay_time nan).
    """
    u = np.asarray(gen.random(plan.n_steps))
    hits = u < plan.jump_prob
    if not hits.any():
        return -1, math.nan
    k = int(np.argmax(hits))
    v = float(gen.random())
    s = _truncated_exponential_time(plan.gamma, plan.dt, v)
    return k, k * plan.dt + s


def step_decay_record(params, stream, initial_state=None, record_steps=False) -> TrajectoryRecord:
    """What ``run_qmop_trajectory``/``run_swf_trajectory`` return for ``params.model``."""
    initial = QubitState.excited() if initial_state is None else initial_state
    plan = _step_plan(params, initial, params.model)
    k, t_dec = _single_step_decay(plan, stream.generator())
    occ = plan.occupation.tolist()
    n_live = plan.n_steps if k < 0 else k  # grid steps completed before the jump
    events = []
    series = None
    if record_steps:
        events = [TrajectoryEvent((j + 1) * plan.dt, EventKind.STEP, occ[j], occ[j + 1]) for j in range(n_live)]
        series = np.array(occ[: n_live + 1] + [0.0] * (plan.n_steps - n_live))
    if k >= 0:
        terminal = EventKind.PHOTON_DETECTION if params.model is Model.SWF else EventKind.QUANTUM_JUMP
        events.append(TrajectoryEvent(t_dec, terminal, occ[k], 0.0))
    return TrajectoryRecord(
        traj_id=stream.stream_id,
        events=events,
        decay_time=None if k < 0 else t_dec,
        occupation_series=series,
    )


def _single_nsm(
    params: ModelParams,
    gen,
    w_excited0: float,
    fluctuation_times: Optional[Sequence[float]] = None,
):
    """Run one fluctuation-driven trajectory.

    Returns (decay_time, fluct_times, gaps, occ_before, jumped) where the
    lists cover every fluctuation processed in order; decay_time is NaN when
    the trajectory survives to t_max.  A pure ground input consumes no draw:
    every reduction is trivial and nothing ever jumps.
    """
    if w_excited0 == 0.0:
        return math.nan, [], [], [], False
    gamma, beta, t_max = params.gamma, params.beta, params.t_max
    forced = None if fluctuation_times is None else list(fluctuation_times)

    t_prev = 0.0
    w_exc = w_excited0  # excited weight at the last reset
    times: List[float] = []
    gaps: List[float] = []
    occ_before: List[float] = []
    decay_time = math.nan
    jumped = False
    idx = 0
    while True:
        if forced is None:
            if not beta > 0.0:
                break
            gap = _fluctuation_gap(gen, beta)
            t_fluct = t_prev + gap
        else:
            if idx >= len(forced):
                break
            t_fluct = float(forced[idx])
            gap = t_fluct - t_prev
            idx += 1
            if gap <= 0.0:
                raise ValueError("fluctuation times must be strictly increasing from 0")
        if t_fluct > t_max:
            break

        survive_w = w_exc * math.exp(-gamma * gap)
        u = gen.random()
        times.append(t_fluct)
        gaps.append(gap)
        occ_before.append(survive_w)
        if u < survive_w:
            # reset to pure excited; relative phase restarts with the state
            t_prev = t_fluct
            w_exc = 1.0
        else:
            # terminal reduction onto the ground(+photon) branch; attribute
            # the emission time inside the gap by the exponential flow of the
            # excited component (exact for pure-excited resets)
            jumped = True
            v = (u - survive_w) / (1.0 - survive_w) if survive_w < 1.0 else gen.random()
            s = _truncated_exponential_time(gamma, gap, v)
            decay_time = (t_fluct - gap) + s
            break
    return decay_time if jumped else math.nan, times, gaps, occ_before, jumped


def nsm_record(params, stream, initial_state=None, record_steps=False, fluctuation_times=None, gen=None) -> TrajectoryRecord:
    """What ``run_nsm_trajectory`` returns; ``gen`` replaces ``stream.generator()``.

    The occupation series takes its exponentials from one ``np.exp`` over the
    grid, as the series always has; everything else is a Python loop.
    """
    initial = QubitState.excited() if initial_state is None else normalize(initial_state)
    w_exc0 = abs(initial.c_excited) ** 2
    gen = stream.generator() if gen is None else gen
    decay_time, times, gaps, occ_before, jumped = _single_nsm(params, gen, w_exc0, fluctuation_times)
    events = [TrajectoryEvent(t, EventKind.FLUCTUATION_NO_JUMP, occ, 1.0) for t, occ in zip(times, occ_before)]
    if jumped:
        events[-1] = TrajectoryEvent(times[-1], EventKind.QUANTUM_JUMP, occ_before[-1], 0.0)
    series = None
    if record_steps:
        n, dt = params.n_steps, params.dt
        resets = [(0.0, w_exc0)] + [(t, 1.0) for t in times[: len(times) - jumped]]
        t_reset, w, live = np.zeros(n + 1), np.zeros(n + 1), np.zeros(n + 1, dtype=bool)
        for k in range(n + 1):
            g = k * dt
            live[k] = not (jumped and g >= times[-1])
            t_reset[k], w[k] = [(t, wt) for t, wt in resets if t <= g][-1]
        series = np.where(live, w * np.exp(-params.gamma * (np.arange(n + 1) * dt - t_reset)), 0.0)
        taken = set(times)
        for j in range(n):
            t = (j + 1) * dt
            if jumped and t >= times[-1]:
                break
            if t not in taken:
                events.append(TrajectoryEvent(t, EventKind.STEP, float(series[j]), float(series[j + 1])))
        events.sort(key=lambda ev: ev.t)
    outcomes = [NsmOutcome.RESET_TO_EXCITED] * len(times)
    if jumped:
        outcomes[-1] = NsmOutcome.JUMP_TO_GROUND
    return TrajectoryRecord(
        traj_id=stream.stream_id,
        events=events,
        decay_time=decay_time if jumped else None,
        nsm_events=tuple(NsmEvent(t, gap, -math.expm1(-params.gamma * gap), o) for t, gap, o in zip(times, gaps, outcomes)),
        occupation_series=series,
        flags=(NSM_BETA_ZERO_FLAG,) if params.beta == 0.0 and fluctuation_times is None else (),
    )


def _single_driven_nsm(plan: _DrivenPlan, gen):
    """Driven nsm trajectory, one fluctuation per loop iteration.

    Each reduction is applied at the end of the step containing it.  Returns
    (emissions, emission_drops, series, fluctuations) where emissions are
    (time, occupation_before) pairs, emission_drops the matching
    occupation-drop values and fluctuations one (time, gap, occupation_drop,
    to_ground) row per reduction.
    """
    params = plan.params
    beta = params.beta
    gamma = params.gamma
    n = params.n_steps
    dt = params.dt
    series = np.empty(n + 1)
    emissions: List[Tuple[float, float]] = []
    emission_drops: List[float] = []
    fluctuations: List[Tuple[float, float, float, bool]] = []
    row = 0  # the plan's table: 0 initial, 1 excited, 2 ground
    k0 = 0
    t_prev = 0.0
    if beta > 0.0:
        gap = _fluctuation_gap(gen, beta)
        t_c = t_prev + gap
        while t_c <= params.t_max:
            b = min(max(math.ceil(t_c / dt), k0), n)
            idx = b - k0
            series[k0 : b + 1] = plan.occ[row, : idx + 1]
            p_exc = float(plan.occ[row, idx])
            a = -math.expm1(-gamma * gap)
            if gen.random() < p_exc:
                fluctuations.append((t_c, gap, a, False))
                row = 1
            else:
                ground_branch = 1.0 - p_exc
                p_photon = float(plan.photon_w[row, idx]) / ground_branch if ground_branch > 0.0 else 0.0
                fluctuations.append((t_c, gap, a, True))
                if gen.random() < p_photon:
                    emissions.append((t_c, p_exc))
                    emission_drops.append(a)
                row = 2
            k0 = b
            t_prev = t_c
            gap = _fluctuation_gap(gen, beta)
            t_c = t_prev + gap
    series[k0:] = plan.occ[row, : n - k0 + 1]
    return emissions, emission_drops, series, fluctuations


def _driven_record(params, stream, emissions, series, record_steps, nsm_events=()) -> TrajectoryRecord:
    """The record of a driven trajectory from its ``(t, occupation_before)`` emissions and its series."""
    events = [TrajectoryEvent(t, EventKind.PHOTON_DETECTION, occ, 0.0) for t, occ in emissions]
    if record_steps:
        taken = {t for t, _ in emissions}
        grid = [(j + 1) * params.dt for j in range(params.n_steps)]
        events += [TrajectoryEvent(t, EventKind.STEP, series[j], series[j + 1]) for j, t in enumerate(grid) if t not in taken]
        events.sort(key=lambda ev: ev.t)
    return TrajectoryRecord(
        traj_id=stream.stream_id,
        events=events,
        nsm_events=nsm_events,
        occupation_series=series if record_steps else None,
    )


def driven_nsm_record(params, drive, stream, initial_state=None, record_steps=False, gen=None) -> TrajectoryRecord:
    """What ``run_driven_trajectory`` returns under nsm; ``gen`` replaces ``stream.generator()``."""
    plan = _driven_plan(params, drive, initial_state)
    emissions, _, series, fluctuations = _single_driven_nsm(plan, stream.generator() if gen is None else gen)
    outcomes = (NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)
    nsm_events = tuple(NsmEvent(t, gap, a, outcomes[to_ground]) for t, gap, a, to_ground in fluctuations)
    return _driven_record(params, stream, emissions, series, record_steps, nsm_events)


def _single_driven_step(plan: _DrivenPlan, gen):
    """Driven qmop/swf trajectory: returns (emissions, occupation series).

    Emissions are (time, occupation_before) pairs; occupation is recorded at
    every step start, with segments riding the precomputed no-jump tables.
    """
    params = plan.params
    n = params.n_steps
    dt = params.dt
    series = np.empty(n + 1)
    emissions: List[Tuple[float, float]] = []
    row = 0  # the plan's table: 0 initial, 2 ground
    k0 = 0
    while k0 < n:
        rem = n - k0
        u = np.asarray(gen.random(rem))
        hits = u < plan.jump_prob[row, :rem]
        if not hits.any():
            series[k0:] = plan.occ[row, : rem + 1]
            return emissions, series
        j = int(np.argmax(hits))
        series[k0 : k0 + j + 1] = plan.occ[row, : j + 1]
        v = float(gen.random())
        s = _truncated_exponential_time(params.gamma, dt, v)
        # occupation entering the jump check is the post-rotation value;
        # report the step-start occupation for the event log
        emissions.append(((k0 + j) * dt + s, float(plan.occ[row, j])))
        k0 += j + 1
        row = 2
    series[n] = plan.occ[row, 0]
    return emissions, series


def driven_step_record(params, drive, stream, initial_state=None, record_steps=False) -> TrajectoryRecord:
    """What ``run_driven_trajectory`` returns under qmop/swf."""
    emissions, series = _single_driven_step(_driven_plan(params, drive, initial_state), stream.generator())
    return _driven_record(params, stream, emissions, series, record_steps)


def homodyne_block(params: ModelParams, noise_model: NoiseModel, theta: float, kick: float, rho0, gens):
    """``(current, sigma_x, kick_counts)`` of a homodyne block, from a float64 noise matrix.

    Each trajectory's increments come from the public samplers into one
    ``(m, n_steps)`` float64 row, its counts into an int64 row; the state
    loop is the lock-step engine's, one step at a time over the block.
    """
    gens = list(gens)
    m, n_steps, dt = len(gens), params.n_steps, params.dt
    noise = np.empty((m, n_steps))
    counts = None
    if noise_model is NoiseModel.WHITE:
        for j, gen in enumerate(gens):
            noise[j] = white_noise_increments(gen, n_steps, dt)
    else:
        counts = np.empty((m, n_steps), dtype=np.int64)
        for j, gen in enumerate(gens):
            noise[j], counts[j] = point_process_increments(gen, n_steps, dt, params.beta, kick)
    ee, gg = np.full(m, rho0.rho_ee), np.full(m, rho0.rho_gg)
    re, im = np.full(m, rho0.rho_eg.real), np.full(m, rho0.rho_eg.imag)
    cur, sig = np.empty((m, n_steps)), np.empty((m, n_steps))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    x = math.exp(-0.5 * params.gamma * dt)
    phi = (params.omega0 - params.omega1) * dt
    cos_p, sin_p = math.cos(phi), math.sin(phi)
    for k in range(n_steps):
        dW = noise[:, k]
        sig[:, k] = 2.0 * re
        cur[:, k] = 2.0 * (cos_t * re - sin_t * im) + dW / dt
        tr = 2.0 * re
        ee, gg, re, im = ee - dW * tr * ee, gg + dW * (2.0 * re - tr * gg), re + dW * (ee - tr * re), im - dW * tr * im
        mean = 0.5 * (ee + gg)
        disc = np.sqrt((0.5 * (ee - gg)) ** 2 + re * re + im * im)
        lo = mean - disc
        bad = lo < 0.0
        if bad.any():
            span = np.where(bad & (disc > 0.0), 2.0 * disc, 1.0)
            ee, gg = np.where(bad, (ee - lo) / span, ee), np.where(bad, (gg - lo) / span, gg)
            re, im = np.where(bad, re / span, re), np.where(bad, im / span, im)
        t2 = x * x * ee + gg
        ee, gg = x * x * ee / t2, gg / t2
        re, im = x * (re * cos_p - im * sin_p) / t2, x * (re * sin_p + im * cos_p) / t2
    return cur, sig, counts


def patched_philox(real, values):
    """``real`` (``philox_uniforms``) with draw ``p`` of every stream replaced by ``values[p]``."""

    def philox_uniforms(seed, ids, counters):
        u = real(seed, ids, counters)
        pos = 4 * (np.broadcast_to(np.asarray(counters), u.shape[:-1])[..., None] - 1) + np.arange(4)
        for p, x in values.items():
            u[pos == p] = x
        return u

    return philox_uniforms


def spy_calls(monkeypatch, module, name) -> list:
    """Wrap ``module.name`` so that each call appends its positional arguments to the returned list."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class PatchedGenerator:
    """The draws of ``gen`` with draw ``p`` replaced by ``values[p]``, as ``patched_philox`` does."""

    def __init__(self, gen, values):
        self.gen, self.values, self.pos = gen, values, 0

    def random(self):
        u = self.gen.random()
        self.pos += 1
        return self.values.get(self.pos - 1, u)


def assert_same_record(rec, ref):
    """Two trajectory records are equal field for field, floats bit for bit."""
    assert (rec.traj_id, rec.events, rec.decay_time, rec.flags) == (ref.traj_id, ref.events, ref.decay_time, ref.flags)
    assert rec.nsm_events == ref.nsm_events
    if ref.occupation_series is None:
        assert rec.occupation_series is None
    else:
        assert np.array_equal(rec.occupation_series, ref.occupation_series)
