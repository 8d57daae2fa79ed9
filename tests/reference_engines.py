"""Scalar reference engines: independent oracles for the batched engines in ``src/``.

Each one reads its draws from a plain ``numpy.random.Generator`` in the
order of the reproducibility contract (``qdecay.models`` docstring), one
trajectory at a time, and builds the record's events with a Python loop.
"""

import math
from typing import Tuple

import numpy as np

from qdecay.core import EventKind, Model, QubitState, TrajectoryEvent, TrajectoryRecord
from qdecay.models import _step_plan, _StepPlan, _truncated_exponential_time


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
