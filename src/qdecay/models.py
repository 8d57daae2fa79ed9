"""The three single-decay engines (qmop, swf, nsm) and their analytic laws.

All three engines consume one ``RngStream`` per trajectory and share the same
within-step emission-time attribution: when a jump is drawn inside a step (or
inside a fluctuation gap), the recorded decay time is sampled from the
exponential law restricted to that interval.  This keeps the recorded
decay-time distribution continuous instead of grid-quantized, so ensemble
statistics can be compared to the analytic exponential law at full KS
resolution.

Draw order per trajectory (part of the reproducibility contract):

* qmop / swf: draws ``0 .. n_steps - 1`` are the per-step jump checks and
  draw ``n_steps`` is the within-step attribution uniform if a jump
  occurred.  One engine, ``_lockstep_step_decay``, reads those positions of
  the Philox4x64-10 streams through the batched ``core.philox_uniforms``
  kernel, stopping each trajectory's checks at its first hit;
  ``run_decay_ensemble`` runs it over every id and the single-trajectory
  runners over the one id of their stream.
* nsm: alternating uniforms, one for each fluctuation gap and one for each
  reduction outcome; the attribution uniform is recovered from the outcome
  draw by conditioning, so no extra draw is consumed.  A gap redraws its
  uniform while it is zero (``_fluctuation_gap``, also behind
  ``sample_fluctuation_gap``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    MAX_GAMMA_DT,
    EventKind,
    Model,
    ModelParams,
    QubitState,
    RngStream,
    TrajectoryEvent,
    TrajectoryRecord,
    as_generator,
    normalize,
    philox_uniforms,
    rekeyed_generators,
    run_ensemble,
)

NSM_BETA_ZERO_FLAG = "nsm_beta_zero_no_fluctuations"


class NsmOutcome(str, Enum):
    RESET_TO_EXCITED = "reset_to_excited"
    JUMP_TO_GROUND = "jump_to_ground"


@dataclass(frozen=True)
class NsmEvent:
    """One vacuum-fluctuation reduction: gap since the previous one, the
    occupation drop ``a_before = 1 - exp(-gamma*gap)`` accumulated over that
    gap, and the Born outcome.

    ``a_before`` may equal 1: in double precision ``1 - exp(-gamma*gap)``
    rounds to exactly 1.0 once ``gamma*gap`` exceeds ~37.4, a gap that a
    rate-``beta`` process reaches with probability ``exp(-37.4*beta/gamma)``.
    """

    t: float
    gap: float
    a_before: float
    outcome: NsmOutcome

    def __post_init__(self) -> None:
        if not self.gap > 0.0:
            raise ValueError(f"gap must be > 0, got {self.gap}")
        if not 0.0 <= self.a_before <= 1.0:
            raise ValueError(f"a_before must lie in [0, 1], got {self.a_before}")


@dataclass(frozen=True)
class DropMoments:
    """Mean and standard deviation of the occupation drop, with r = beta/gamma."""

    mean_a: float
    std_a: float
    r: float


def survival_probability(gamma: float, t: float) -> float:
    """Probability exp(-gamma*t) that an excited atom has not decayed by t."""
    if t < 0.0:
        raise ValueError(f"negative time: t must be >= 0, got {t}")
    if gamma < 0.0:
        raise ValueError(f"negative rate: gamma must be >= 0, got {gamma}")
    return math.exp(-gamma * t)


def unitary_weights(gamma: float, t: float) -> Tuple[float, float]:
    """(excited, continuum) weights of the unconditioned unitary evolution.

    The weights are complementary by construction and sum to 1.0 exactly.
    """
    excited = survival_probability(gamma, t)
    return excited, 1.0 - excited


def qmop_propagate(state: QubitState, params: ModelParams, t: float) -> QubitState:
    """Deterministic no-jump propagation of a two-level state for duration t.

    The excited amplitude decays at gamma/2 and both amplitudes pick up their
    energy phases; the result is renormalized, which is what conditions the
    evolution on "no jump so far".  A state carrying photon weight is
    rejected: the no-jump branch is strictly two-level.
    """
    if t < 0.0:
        raise ValueError(f"negative time: t must be >= 0, got {t}")
    if state.w_photon != 0.0:
        raise ValueError("photon component present: no-jump propagation needs w_photon == 0")
    c1 = state.c_excited * np.exp(complex(-0.5 * params.gamma * t, -params.omega1 * t))
    c0 = state.c_ground * np.exp(complex(0.0, -params.omega0 * t))
    norm_sq = abs(c0) ** 2 + abs(c1) ** 2
    if norm_sq < 1e-300:
        raise ValueError("zero norm: no-jump branch has vanished")
    n = math.sqrt(norm_sq)
    return QubitState(complex(c1) / n, complex(c0) / n, 0.0)


def jump_probability(state: QubitState, gamma: float, dt: float) -> float:
    """Conditional jump probability |c_excited|^2 * gamma * dt for one step."""
    if gamma < 0.0:
        raise ValueError(f"negative rate: gamma must be >= 0, got {gamma}")
    if dt < 0.0:
        raise ValueError(f"negative time: dt must be >= 0, got {dt}")
    if gamma * dt > MAX_GAMMA_DT:
        raise ValueError(f"step too large: gamma*dt={gamma * dt:g} exceeds {MAX_GAMMA_DT}")
    return abs(state.c_excited) ** 2 * gamma * dt


def swf_detection_probability(state: QubitState, gamma: float, dt: float) -> float:
    """Per-step photon-detection probability |c_excited|^2 * (1 - exp(-gamma*dt)).

    Uses the exact per-step strength of the unitary evolution rather than the
    first-order rate, so that n no-detection steps from a pure excited state
    leave survival weight exp(-gamma*n*dt) exactly.
    """
    if gamma < 0.0:
        raise ValueError(f"negative rate: gamma must be >= 0, got {gamma}")
    if dt < 0.0:
        raise ValueError(f"negative time: dt must be >= 0, got {dt}")
    return abs(state.c_excited) ** 2 * (-math.expm1(-gamma * dt))


def sample_fluctuation_gap(beta: float, stream, size: Optional[int] = None):
    """Draw waiting times between vacuum fluctuations, -ln(u)/beta with u~U(0,1).

    Degenerate draws (u == 0, which would give an infinite gap) are redrawn
    in sequence.  With ``size`` given, returns an ndarray of that many gaps,
    the values of ``size`` scalar calls on the same stream.
    """
    if not beta > 0.0:
        raise ValueError(f"non-positive rate: beta must be > 0, got {beta}")
    gen = as_generator(stream)
    if size is None:
        return _fluctuation_gap(gen, beta)
    return np.fromiter((_fluctuation_gap(gen, beta) for _ in range(size)), float, size)


def _fluctuation_gap(gen, beta: float) -> float:
    """One gap -ln(u)/beta for ``beta > 0``, redrawing u until the gap is positive.

    The unchecked core of ``sample_fluctuation_gap`` for the engines' hot loops.
    """
    while True:
        u = gen.random()
        if u > 0.0:
            gap = -math.log(u) / beta
            if gap > 0.0:
                return gap


def fluctuation_gap_density(beta: float, tau: float) -> float:
    """Density beta*exp(beta*tau) of the (negative) time since the last fluctuation."""
    if not beta > 0.0:
        raise ValueError(f"non-positive rate: beta must be > 0, got {beta}")
    if tau > 0.0:
        raise ValueError(f"positive tau: density is defined for tau <= 0, got {tau}")
    return beta * math.exp(beta * tau)


def occupation_drop_density(r: float, a: float) -> float:
    """Density r*(1-a)^(r-1) of the occupation drop at a fluctuation.

    Accepts a = 0 (density r there); a = 1 is excluded because the density
    diverges for r < 1.
    """
    if r < 0.0:
        raise ValueError(f"r must be >= 0, got {r}")
    if not 0.0 <= a < 1.0:
        raise ValueError(f"a out of range: need 0 <= a < 1, got {a}")
    return r * (1.0 - a) ** (r - 1.0)


def occupation_drop_moments(gamma: float, beta: float) -> DropMoments:
    """Mean 1/(1+r) and spread of the occupation drop, with r = beta/gamma."""
    if not gamma > 0.0:
        raise ValueError(f"non-positive gamma: need gamma > 0, got {gamma}")
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    r = beta / gamma
    mean = 1.0 / (1.0 + r)
    std = mean * math.sqrt(r / (2.0 + r))
    return DropMoments(mean_a=mean, std_a=std, r=r)


# ---------------------------------------------------------------------------
# step-based engines (qmop, swf)
# ---------------------------------------------------------------------------


def _truncated_exponential_time(rate: float, width: float, v: float) -> float:
    """Inverse-CDF sample of Exp(rate) conditioned on (0, width], v in [0, 1)."""
    if rate <= 0.0:
        return (v if v > 0.0 else 0.5) * width
    q = -math.expm1(-rate * width)
    s = -math.log1p(-v * q) / rate
    # guard against rounding at the interval ends
    return min(max(s, math.ulp(0.0)), width)


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` over ``x``: numpy's transcendentals may round differently."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _truncated_exponential_times(rate: float, width: float, v: np.ndarray) -> np.ndarray:
    """``_truncated_exponential_time`` over an array of ``v``, bit for bit.

    The arithmetic, ``min`` and ``max`` run in numpy and ``log1p`` on ``math``.
    """
    if rate <= 0.0:
        return np.where(v > 0.0, v, 0.5) * width
    q = -math.expm1(-rate * width)
    s = -_math_map(math.log1p, -v * q) / rate
    return np.minimum(np.maximum(s, math.ulp(0.0)), width)


def _jump_strength(model: Model, gamma: float, dt: float) -> float:
    """Jump probability of one step from the excited state: swf ``1 - exp(-gamma*dt)``, qmop ``gamma*dt``."""
    return -math.expm1(-gamma * dt) if model is Model.SWF else gamma * dt


@dataclass(frozen=True)
class _StepPlan:
    """Deterministic no-jump data shared by every trajectory of an ensemble."""

    n_steps: int
    dt: float
    gamma: float
    occupation: np.ndarray  # occupation at step starts, length n_steps + 1
    jump_prob: np.ndarray  # per-step jump/detection probability, length n_steps


def _step_plan(params: ModelParams, initial: QubitState, model: Model) -> _StepPlan:
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: decay engines start two-level")
    initial = normalize(initial)
    w_e = abs(initial.c_excited) ** 2
    w_g = abs(initial.c_ground) ** 2
    n_steps = params.n_steps
    t = np.arange(n_steps + 1) * params.dt
    if w_g == 0.0:
        # pure excited input: the no-jump normalization keeps occupation at
        # exactly one, independent of elapsed time
        occ = np.ones(n_steps + 1)
    else:
        s = np.exp(-params.gamma * t)
        occ = w_e * s / (w_g + w_e * s)
    jump_prob = occ[:n_steps] * _jump_strength(model, params.gamma, params.dt)
    return _StepPlan(n_steps, params.dt, params.gamma, occ, jump_prob)


# Philox counters evaluated per lock-step block (live trajectories x counters
# each), which bounds the engine's working memory to ~2 MB of uniforms.
_LOCKSTEP_COUNTERS = 1 << 16
# Trajectories per attribution batch: short lists of Python floats keep the
# allocator from holding on to arenas that would raise the peak RSS.
_ATTRIBUTION_CHUNK = 4096


def _lockstep_step_decay(plan: _StepPlan, seed: int, ids: range) -> Tuple[np.ndarray, np.ndarray]:
    """The qmop/swf engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    Returns (decay_times, jump_steps); a trajectory that survives to t_max
    has jump step -1 and decay time nan.  Jump check ``k`` reads draw ``k``
    and the attribution reads draw ``n_steps``, both straight from
    ``philox_uniforms``.  Groups of at most ``_LOCKSTEP_COUNTERS``
    trajectories advance in lock-step, a block of counters at a time, and
    each trajectory leaves the live set at its first hit, so it costs the
    draws up to its jump instead of all ``n_steps``.  Blocks grow as the live
    set shrinks, keeping live x block at or below ``_LOCKSTEP_COUNTERS``.
    Offsets into ``ids`` are uint64, so ids up to 2**64 - 1 work.
    """
    n = len(ids)
    times = np.full(n, math.nan)
    steps = np.full(n, -1, dtype=np.int64)
    # checks past the last nonzero probability never hit (u >= 0), so they
    # are skipped; the zero padding up to whole counters never hits either
    n_checks = int(np.flatnonzero(plan.jump_prob)[-1]) + 1 if plan.jump_prob.any() else 0
    n_ctr = -(-n_checks // 4)
    prob = np.zeros(4 * n_ctr)
    prob[:n_checks] = plan.jump_prob[:n_checks]
    attribution_ctr, attribution_lane = divmod(plan.n_steps, 4)
    for lo in range(0, n, _LOCKSTEP_COUNTERS):
        live = np.arange(lo, min(lo + _LOCKSTEP_COUNTERS, n), dtype=np.uint64)
        ctr = 0
        while live.size and ctr < n_ctr:
            block = min(max(1, _LOCKSTEP_COUNTERS // live.size), n_ctr - ctr)
            counters = np.arange(ctr + 1, ctr + block + 1)
            u = philox_uniforms(seed, ids.start + live[:, None], counters).reshape(live.size, 4 * block)
            hits = u < prob[4 * ctr : 4 * (ctr + block)]
            hit = hits.any(axis=1)
            steps[live[hit]] = 4 * ctr + np.argmax(hits[hit], axis=1)
            live = live[~hit]
            ctr += block
    decayed = np.flatnonzero(steps >= 0)
    for lo in range(0, decayed.size, _ATTRIBUTION_CHUNK):
        part = decayed[lo : lo + _ATTRIBUTION_CHUNK]
        stream_ids = ids.start + part.astype(np.uint64)
        v = philox_uniforms(seed, stream_ids, attribution_ctr + 1)[:, attribution_lane]
        times[part] = steps[part] * plan.dt + _truncated_exponential_times(plan.gamma, plan.dt, v)
    return times, steps


# Event rows: columns (t, kind, before, after), kind an int8 index into _KINDS.
_KINDS = tuple(EventKind)
_CODE = {kind: np.int8(code) for code, kind in enumerate(_KINDS)}


def _step_rows(series, dt: float, n: int, taken=()):
    """STEP rows ``(t, kind, before, after)`` at the ends of the first ``n`` grid steps.

    ``series`` holds the occupation at step starts.  Grid times in ``taken``
    are skipped: an event already logged there (a fluctuation or emission
    landing exactly on the grid) keeps the time.
    """
    t = np.arange(1, n + 1) * dt
    keep = ~np.isin(t, taken)
    return t[keep], np.full(keep.sum(), _CODE[EventKind.STEP]), series[:n][keep], series[1 : n + 1][keep]


def _merge_rows(first, second):
    """The rows of ``first`` then ``second``, stably sorted on their first column, then their second."""
    cols = [np.concatenate(pair) for pair in zip(first, second)]
    order = np.lexsort((cols[1], cols[0]))
    return tuple(c[order] for c in cols)


def _trajectory_events(t, kind, before, after) -> Tuple[TrajectoryEvent, ...]:
    """The ``TrajectoryEvent``s of one trajectory's event rows."""
    kinds = [_KINDS[c] for c in kind.tolist()]
    return tuple(map(TrajectoryEvent, t.tolist(), kinds, before.tolist(), after.tolist()))


def _step_model_rows(plan: _StepPlan, jump_steps, decay_times, model: Model, record_steps: bool):
    """Event rows ``(traj_id, t, kind, before, after)`` of qmop/swf trajectories ``0 .. n - 1``.

    With ``record_steps``, a STEP row per grid step before the jump (all when
    censored) precedes a trajectory's terminal row.
    """
    decayed = np.flatnonzero(jump_steps >= 0)
    terminal = EventKind.PHOTON_DETECTION if model is Model.SWF else EventKind.QUANTUM_JUMP
    k = jump_steps[decayed]
    rows = (decayed, decay_times[decayed], np.full(k.size, _CODE[terminal]), plan.occupation[k], np.zeros(k.size))
    if not record_steps:
        return rows
    # every trajectory rides the same no-jump curve, so its STEP rows are
    # the first n_i rows of the full grid
    n_i = np.where(jump_steps < 0, plan.n_steps, jump_steps)
    traj_id = np.repeat(np.arange(jump_steps.size), n_i)
    j = np.arange(traj_id.size) - np.repeat(np.cumsum(n_i) - n_i, n_i)
    steps = _step_rows(plan.occupation, plan.dt, plan.n_steps)
    return _merge_rows((traj_id, *(c[j] for c in steps)), rows)


def _step_decay_record(
    params: ModelParams,
    stream: RngStream,
    model: Model,
    initial_state: Optional[QubitState],
    record_steps: bool,
) -> TrajectoryRecord:
    """``_lockstep_step_decay`` over the one id of ``stream``, as a record."""
    if not isinstance(stream, RngStream):
        name = type(stream).__name__
        raise TypeError(f"the {model.value} runner takes an RngStream from derive_stream(), got {name}")
    initial = QubitState.excited() if initial_state is None else initial_state
    plan = _step_plan(params, initial, model)
    i = stream.stream_id
    times, steps = _lockstep_step_decay(plan, stream.root_seed, range(i, i + 1))
    rows = _step_model_rows(plan, steps, times, model, record_steps)
    k = int(steps[0])

    series = None
    if record_steps:
        series = plan.occupation.copy()
        if k >= 0:
            series[k + 1 :] = 0.0
    return TrajectoryRecord(
        traj_id=i,
        events=_trajectory_events(*rows[1:]),
        decay_time=None if k < 0 else float(times[0]),
        occupation_series=series,
    )


def run_qmop_trajectory(
    params: ModelParams,
    stream: RngStream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
) -> TrajectoryRecord:
    """One trajectory of the open-system engine.

    Each step draws a uniform against the conditional jump probability
    ``occupation * gamma * dt``; the no-jump branch follows the deterministic
    renormalized propagation, under which a pure excited input keeps
    occupation exactly one until the jump.  ``stream`` must be an
    ``RngStream`` (``derive_stream(seed, i)``); the result is trajectory
    ``i`` of the ensemble.
    """
    return _step_decay_record(params, stream, Model.QMOP, initial_state, record_steps)


def run_swf_trajectory(
    params: ModelParams,
    stream: RngStream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
) -> TrajectoryRecord:
    """One trajectory of the finite-step photon-counting engine.

    Per step, a photon is detected with probability
    ``occupation * (1 - exp(-gamma*dt))`` (terminal jump to ground);
    otherwise the state is renormalized onto the no-photon component, which
    coincides with the qmop no-jump propagation over one step.  ``stream``
    must be an ``RngStream``, as for ``run_qmop_trajectory``.
    """
    return _step_decay_record(params, stream, Model.SWF, initial_state, record_steps)


# ---------------------------------------------------------------------------
# event-driven engine (nsm)
# ---------------------------------------------------------------------------


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


def run_nsm_trajectory(
    params: ModelParams,
    stream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
    fluctuation_times: Optional[Sequence[float]] = None,
) -> TrajectoryRecord:
    """One trajectory of the vacuum-fluctuation reduction engine.

    Fluctuations arrive as a rate-``beta`` point process (or at the injected
    ``fluctuation_times``, a deterministic test hook).  Between fluctuations
    the state follows the unconditioned unitary weights, so the occupation of
    a freshly reset atom decays as ``exp(-gamma * (t - t_reset))``.  Each
    fluctuation reduces the state by the Born rule: back to pure excited with
    the surviving weight, else terminally onto ground.  Fluctuation duration
    is treated as zero.

    ``beta == 0`` is the degenerate no-fluctuation limit: nothing ever jumps,
    the occupation decays smoothly, and the record is flagged.
    """
    if params.model is not Model.NSM:
        raise ValueError(f"run_nsm_trajectory needs model=nsm, got {params.model.value}")
    initial = QubitState.excited() if initial_state is None else normalize(initial_state)
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: decay engines start two-level")
    w_exc0 = abs(initial.c_excited) ** 2
    gen = as_generator(stream)
    traj_id = stream.stream_id if isinstance(stream, RngStream) else 0
    decay_time, times, gaps, occ_before, jumped = _single_nsm(params, gen, w_exc0, fluctuation_times)

    outcomes = (NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)
    terminal = np.zeros(len(times), dtype=bool)
    terminal[-1:] = jumped
    drops = [-math.expm1(-params.gamma * gap) for gap in gaps]
    nsm_events = tuple(map(NsmEvent, times, gaps, drops, [outcomes[b] for b in terminal.tolist()]))

    flags = (NSM_BETA_ZERO_FLAG,) if params.beta == 0.0 and fluctuation_times is None else ()
    series = None
    rows = _nsm_rows(np.array(times), np.array(occ_before), terminal)
    if record_steps:
        series = _nsm_occupation_series(params, w_exc0, times, jumped)
        rows = _merge_rows(rows, _nsm_step_rows(params.dt, series, times, jumped))
    return TrajectoryRecord(
        traj_id=traj_id,
        events=_trajectory_events(*rows),
        decay_time=None if math.isnan(decay_time) else decay_time,
        nsm_events=nsm_events,
        occupation_series=series,
        flags=flags,
    )


def _nsm_rows(t: np.ndarray, occ: np.ndarray, terminal: np.ndarray):
    """Event rows ``(t, kind, before, after)`` of nsm fluctuations.

    A fluctuation resets the atom to excited, or, where ``terminal``, jumps
    it to ground.
    """
    kind = np.where(terminal, _CODE[EventKind.QUANTUM_JUMP], _CODE[EventKind.FLUCTUATION_NO_JUMP])
    return t, kind, occ, np.where(terminal, 0.0, 1.0)


def _nsm_step_rows(dt: float, series: np.ndarray, times, jumped: bool):
    """One nsm trajectory's STEP rows: the grid times before its jump that no fluctuation takes."""
    steps = _step_rows(series, dt, series.size - 1, times)
    return tuple(c[steps[0] < times[-1]] for c in steps) if jumped else steps


def _nsm_occupation_series(params: ModelParams, w_exc0: float, times, jumped: bool) -> np.ndarray:
    """Occupation on the step grid: exponential arcs between resets, 0 from the jump on."""
    grid = np.arange(params.n_steps + 1) * params.dt
    series = np.zeros(grid.size)
    # only the grid points before the jump carry an arc
    grid = grid[: np.searchsorted(grid, times[-1])] if jumped else grid
    reset_times = np.array([0.0, *times[: len(times) - jumped]])
    seg = np.searchsorted(reset_times, grid, side="right") - 1
    w0 = np.where(seg == 0, w_exc0, 1.0)
    series[: grid.size] = w0 * np.exp(-params.gamma * (grid - reset_times[seg]))
    return series


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------


@dataclass
class EventTable:
    """Column-oriented event log, cheap to accumulate and to stream to CSV."""

    traj_id: np.ndarray
    t: np.ndarray
    kind: List[str]
    occupation_before: np.ndarray
    occupation_after: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


@dataclass
class EnsembleSummary:
    """Per-ensemble statistics of a single-decay run.

    ``decay_times`` is NaN-padded where trajectories were censored at t_max.
    Occupation bins are per-trajectory bin means aggregated over the
    ensemble; ``drop_samples`` collects the occupation drop at every
    fluctuation (terminal and non-terminal) of an NSM run.
    """

    model: Model
    n_traj: int
    decay_times: np.ndarray
    n_censored: int
    events: EventTable
    bin_centers: Optional[np.ndarray] = None
    occupation_mean: Optional[np.ndarray] = None
    occupation_var: Optional[np.ndarray] = None
    occupation_se: Optional[np.ndarray] = None
    drop_samples: Optional[np.ndarray] = None
    drop_terminal: Optional[np.ndarray] = None
    flags: Tuple[str, ...] = ()

    @property
    def observed_decay_times(self) -> np.ndarray:
        return self.decay_times[~np.isnan(self.decay_times)]


def _bin_statistics(vals: np.ndarray, edges: np.ndarray, dt: float):
    """(centers, mean, var, se) over trajectories of per-bin occupation means.

    ``vals`` has one row per trajectory and one column per bin, and ``edges``
    are the bin edges in steps.  The reduction runs over the merged matrix,
    so it does not depend on how trajectories were grouped into chunks.
    """
    n = vals.shape[0]
    mean = vals.mean(axis=0)
    var = vals.var(axis=0, ddof=1) if n > 1 else np.zeros(vals.shape[1])
    return (edges[:-1] + edges[1:]) / 2.0 * dt, mean, var, np.sqrt(var / n)


def _step_bin_means(plan: _StepPlan, jump_steps: np.ndarray, edges: np.ndarray, bin_steps: int) -> np.ndarray:
    """Per-trajectory occupation means over the bins ``edges`` of a step-model ensemble.

    Uses the fact that every live trajectory rides the same deterministic
    no-jump curve: the per-trajectory series is the curve truncated at its
    jump step, so binned values follow from prefix sums and the cutoffs.
    """
    prefix = np.concatenate([[0.0], np.cumsum(plan.occupation[: plan.n_steps])])
    cut = np.where(jump_steps < 0, plan.n_steps, jump_steps + 1)
    lo = np.minimum.outer(cut, edges[:-1])
    hi = np.minimum.outer(cut, edges[1:])
    return (prefix[hi] - prefix[lo]) / bin_steps  # (n_traj, n_bins)


def run_decay_ensemble(
    params: ModelParams,
    initial_state: Optional[QubitState] = None,
    threads: int = 1,
    bin_steps: Optional[int] = None,
    record_steps: bool = False,
) -> EnsembleSummary:
    """Run ``params.n_traj`` trajectories of the selected model.

    Trajectory ``i`` always consumes the substream ``derive_stream(seed, i)``
    and partial results are merged in trajectory order, so the output is
    identical for any ``threads`` value.  The event table holds the scalar
    runners' ``events`` in trajectory order, STEP rows only with ``record_steps``.
    """
    initial = QubitState.excited() if initial_state is None else normalize(initial_state)
    n = params.n_traj
    model = params.model
    n_bins = (params.n_steps // bin_steps) if bin_steps else 0
    edges = np.arange(n_bins + 1) * (bin_steps or 1)
    drops = terminal = None
    flags: Tuple[str, ...] = ()

    if model in (Model.QMOP, Model.SWF):
        plan = _step_plan(params, initial, model)
        decay_times, jump_steps = run_ensemble(
            lambda ids: _lockstep_step_decay(plan, params.seed, ids), n, threads
        )
        rows = _step_model_rows(plan, jump_steps, decay_times, model, record_steps)
        if bin_steps:
            vals = _step_bin_means(plan, jump_steps, edges, bin_steps)
    elif model is not Model.NSM:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown model {model}")
    else:
        w_exc0 = abs(initial.c_excited) ** 2

        def work(ids: range):
            # one entry per fluctuation, in trajectory order
            times = np.full(len(ids), math.nan)
            traj_id: List[int] = []
            t_fluct: List[float] = []
            occ: List[float] = []
            drops: List[float] = []
            terminal: List[bool] = []
            vals = np.zeros((len(ids), n_bins))
            steps = []  # STEP rows per trajectory, when recording them
            # pure ground input: nothing ever jumps and no draw is consumed
            streams = rekeyed_generators(params.seed, ids) if w_exc0 > 0.0 else ((i, None) for i in ids)
            for j, (i, gen) in enumerate(streams):
                t_dec, f_times, gaps, occ_before, jumped = _single_nsm(params, gen, w_exc0)
                times[j] = t_dec
                if n_bins or record_steps:
                    series = _nsm_occupation_series(params, w_exc0, f_times, jumped)
                if n_bins:
                    vals[j] = np.add.reduceat(series[: params.n_steps], edges[:-1]) / bin_steps
                traj_id.extend([i] * len(f_times))
                t_fluct.extend(f_times)
                occ.extend(occ_before)
                drops.extend(-math.expm1(-params.gamma * gap) for gap in gaps)
                terminal.extend([False] * len(f_times))
                if jumped:
                    terminal[-1] = True
                if record_steps:
                    cols = _nsm_step_rows(params.dt, series, f_times, jumped)
                    steps.append((np.full(cols[0].size, i), *cols))
            columns = ((traj_id, np.int64), (t_fluct, float), (occ, float), (drops, float), (terminal, bool))
            steps = tuple(map(np.concatenate, zip(*steps))) if record_steps else ()
            return (times, *(np.array(c, dtype=dtype) for c, dtype in columns), vals, *steps)

        decay_times, traj_id, t_fluct, occ, drops, terminal, vals, *steps = run_ensemble(work, n, threads)
        rows = (traj_id, *_nsm_rows(t_fluct, occ, terminal))
        if record_steps:
            rows = _merge_rows(rows, steps)
        if params.beta == 0.0:
            flags = (NSM_BETA_ZERO_FLAG,)

    traj_id, t, kind, before, after = rows
    # spelled out in bounded slices: a row-sized temporary list cost ~0.3 MB of peak RSS
    names = np.array([k.value for k in _KINDS], dtype=object)
    kinds = [None] * kind.size
    for lo in range(0, kind.size, 4096):
        kinds[lo : lo + 4096] = names[kind[lo : lo + 4096]].tolist()
    table = EventTable(traj_id, t, kinds, before, after)
    summary = EnsembleSummary(
        model=model,
        n_traj=n,
        decay_times=decay_times,
        n_censored=int(np.isnan(decay_times).sum()),
        events=table,
        drop_samples=drops,
        drop_terminal=terminal,
        flags=flags,
    )
    if bin_steps:
        (
            summary.bin_centers,
            summary.occupation_mean,
            summary.occupation_var,
            summary.occupation_se,
        ) = _bin_statistics(vals, edges, params.dt)
    return summary
