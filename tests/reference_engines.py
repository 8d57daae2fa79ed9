"""Scalar reference engines: independent oracles for the batched engines in ``src/``.

Each one reads its draws from a plain ``numpy.random.Generator`` in the
order of the reproducibility contract (``qdecay.models`` docstring), one
trajectory at a time, and builds the record's events with a Python loop.
"""

import math
from typing import List, Tuple

import numpy as np

from qdecay.core import EventKind, Model, QubitState, TrajectoryEvent, TrajectoryRecord
from qdecay.models import NsmEvent, NsmOutcome, _fluctuation_gap, _step_plan, _StepPlan, _truncated_exponential_time
from qdecay.rabi import _driven_plan, _DrivenPlan


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
    table = plan.from_initial
    k0 = 0
    t_prev = 0.0
    if beta > 0.0:
        gap = _fluctuation_gap(gen, beta)
        t_c = t_prev + gap
        while t_c <= params.t_max:
            b = min(max(math.ceil(t_c / dt), k0), n)
            idx = b - k0
            series[k0 : b + 1] = table.occ[: idx + 1]
            p_exc = float(table.occ[idx])
            a = -math.expm1(-gamma * gap)
            if gen.random() < p_exc:
                fluctuations.append((t_c, gap, a, False))
                table = plan.from_excited
            else:
                ground_branch = 1.0 - p_exc
                p_photon = float(table.photon_w[idx]) / ground_branch if ground_branch > 0.0 else 0.0
                fluctuations.append((t_c, gap, a, True))
                if gen.random() < p_photon:
                    emissions.append((t_c, p_exc))
                    emission_drops.append(a)
                table = plan.from_ground
            k0 = b
            t_prev = t_c
            gap = _fluctuation_gap(gen, beta)
            t_c = t_prev + gap
    series[k0:] = table.occ[: n - k0 + 1]
    return emissions, emission_drops, series, fluctuations


def driven_nsm_record(params, drive, stream, initial_state=None, record_steps=False, gen=None) -> TrajectoryRecord:
    """What ``run_driven_trajectory`` returns under nsm; ``gen`` replaces ``stream.generator()``."""
    initial = QubitState.ground() if initial_state is None else initial_state
    plan = _driven_plan(params, drive, initial)
    emissions, _, series, fluctuations = _single_driven_nsm(plan, stream.generator() if gen is None else gen)
    events = [TrajectoryEvent(t, EventKind.PHOTON_DETECTION, occ, 0.0) for t, occ in emissions]
    if record_steps:
        taken = {t for t, _ in emissions}
        grid = [(j + 1) * params.dt for j in range(params.n_steps)]
        events += [TrajectoryEvent(t, EventKind.STEP, series[j], series[j + 1]) for j, t in enumerate(grid) if t not in taken]
        events.sort(key=lambda ev: ev.t)
    outcomes = (NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)
    return TrajectoryRecord(
        traj_id=stream.stream_id,
        events=events,
        nsm_events=tuple(NsmEvent(t, gap, a, outcomes[to_ground]) for t, gap, a, to_ground in fluctuations),
        occupation_series=series if record_steps else None,
    )


def assert_same_record(rec, ref):
    """Two trajectory records are equal field for field, floats bit for bit."""
    assert (rec.traj_id, rec.events, rec.decay_time, rec.flags) == (ref.traj_id, ref.events, ref.decay_time, ref.flags)
    assert rec.nsm_events == ref.nsm_events
    if ref.occupation_series is None:
        assert rec.occupation_series is None
    else:
        assert np.array_equal(rec.occupation_series, ref.occupation_series)
