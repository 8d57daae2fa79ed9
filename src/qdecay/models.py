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
  ``run_decay_ensemble`` runs it over blocks of ``_LOCKSTEP_COUNTERS`` ids
  and the single-trajectory runners over the one id of their stream.
* nsm: per fluctuation, the gap uniform of the fluctuation loop the
  driven nsm engine shares (``lockstep`` states that part of the order),
  then the reduction uniform; the attribution uniform is recovered from the
  reduction draw by conditioning, so no extra draw is consumed.  Forced
  fluctuation times replace the gaps.  One engine, ``_lockstep_nsm``, reads
  these positions; ``run_decay_ensemble`` runs it over groups of
  ``lockstep.GROUP_SIZE`` ids and ``run_nsm_trajectory`` over the one id of
  its stream.

``run_decay_ensemble`` runs blocks of consecutive ids through
``lockstep.run_groups``, as driven runs do, and hands each to a consumer as
soon as it is computed (``DecayBlock``), or joins them into one
``EnsembleSummary``; the ``decay`` command writes its tables block by block,
so its memory does not grow with ``n_traj``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import lockstep
from .core import MAX_GAMMA_DT, EncodedColumn, EventKind, Model, ModelParams, QubitState, RngStream, TrajectoryRecord
from .core import as_generator, normalize, philox_uniforms

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

    The unchecked core of ``sample_fluctuation_gap``; the engines draw their gaps in bulk through ``lockstep``.
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


def jump_strength(model: Model, gamma: float, dt: float) -> float:
    """Jump probability of one step from the excited state: swf ``1 - exp(-gamma*dt)``, qmop ``gamma*dt``."""
    return -math.expm1(-gamma * dt) if model is Model.SWF else gamma * dt


def decay_time_cdf(model: Model, gamma: float, dt: float):
    """The exact law ``F(t)`` of an excited start's decay time under ``model``, for an ndarray ``t``.

    A jump with per-step probability ``h``, placed inside its step by the truncated exponential,
    has ``F(k*dt + f) = 1 - (1-h)^k (1 - h expm1(-gamma f) / expm1(-gamma dt))``.  swf's
    ``h = 1 - exp(-gamma dt)`` gives the exponential law, which nsm follows too; qmop's
    ``h = gamma dt`` is off it by O(gamma dt).
    """
    h = jump_strength(Model.SWF if model is Model.NSM else model, gamma, dt)

    def cdf(t):
        # in place on divmod's two arrays: analyze holds no further array the size of t
        k, f = np.divmod(t, dt)
        f *= -gamma
        np.expm1(f, out=f)
        f *= -h / math.expm1(-gamma * dt)
        f += 1.0
        np.power(1.0 - h, k, out=k)
        k *= f
        return np.subtract(1.0, k, out=k)

    return cdf


def law_distance(model: Model, gamma: float, dt: float, horizon: float) -> float:
    """Sup over ``[0, horizon]`` of ``|F(t)/F(horizon) - E(t)/E(horizon)|``, ``F`` the ``decay_time_cdf``.

    ``E(t) = 1 - exp(-gamma t)`` is the exponential law; both laws are
    conditioned on decay by the horizon, and ``gamma`` must be > 0.  Inside
    a step both are affine in ``1 - exp(-gamma f)``, so their difference is
    too, and its sup lies at a grid time or at the horizon.
    """
    t = np.minimum(np.arange(math.ceil(horizon / dt) + 1) * dt, horizon)
    law, exponential = decay_time_cdf(model, gamma, dt)(t), -np.expm1(-gamma * t)
    return float(np.max(np.abs(law / law[-1] - exponential / exponential[-1])))


@dataclass(frozen=True)
class _StepPlan:
    """Deterministic no-jump data shared by every trajectory of an ensemble."""

    n_steps: int
    dt: float
    gamma: float
    grid: np.ndarray  # step start times, length n_steps + 1
    occupation: np.ndarray  # occupation at step starts, length n_steps + 1
    jump_prob: np.ndarray  # per-step jump/detection probability, length n_steps


def _decay_initial(initial_state: Optional[QubitState]) -> QubitState:
    """The normalized start state of a decay run (excited when None), which must be two-level."""
    initial = QubitState.excited() if initial_state is None else normalize(initial_state)
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: decay engines start two-level")
    return initial


def _step_plan(params: ModelParams, initial: QubitState, model: Model) -> _StepPlan:
    """The no-jump plan from ``initial``, a start state ``_decay_initial`` has normalized."""
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
    jump_prob = occ[:n_steps] * jump_strength(model, params.gamma, params.dt)
    return _StepPlan(n_steps, params.dt, params.gamma, t, occ, jump_prob)


# Trajectories per qmop/swf ensemble block, and Philox counters a check pass
# evaluates (live trajectories x counters each): one kernel chunk, ~256 KB
# of uniforms.  Passes of 65536 counters took ~20% longer in the decay
# command, blocks of 2048 ids ~30% longer.
_LOCKSTEP_COUNTERS = 8192
# Trajectories per attribution batch: short lists of Python floats keep the
# allocator from holding on to arenas that would raise the peak RSS.
_ATTRIBUTION_CHUNK = 4096


def _lockstep_step_decay(plan: _StepPlan, seed: int, ids: range) -> Tuple[np.ndarray, np.ndarray]:
    """The qmop/swf engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    Returns (decay_times, jump_steps); a trajectory that survives to t_max
    has jump step -1 and decay time nan.  Jump check ``k`` reads draw ``k``
    and the attribution reads draw ``n_steps``, both straight from
    ``philox_uniforms``.  The trajectories advance in lock-step, a block of
    counters at a time, and each leaves the live set at its first hit, so it
    costs the draws up to its jump instead of all ``n_steps``.  Blocks grow
    as the live set shrinks, keeping live x block at or below
    ``_LOCKSTEP_COUNTERS`` once ``len(ids)`` is (``run_decay_ensemble``
    passes at most that many ids).  Offsets into ``ids`` are uint64, so ids
    up to 2**64 - 1 work.
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
    live, ctr = np.arange(n, dtype=np.uint64), 0
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
        times[part] = steps[part] * plan.dt + lockstep.truncated_exponential_times(plan.gamma, plan.dt, v)
    return times, steps


# Occupation after a jump, and after an nsm fluctuation (code 0: reset, 1: jump).
_AFTER_JUMP = (0.0,)
_AFTER_FLUCTUATION = (1.0, 0.0)


def _step_model_rows(plan: _StepPlan, first: int, jump_steps, decay_times, model: Model, record_steps: bool):
    """Event rows ``(traj_id, t, kind, before, after)`` of qmop/swf trajectories ``first, first + 1, ...``.

    Occupations are ``EncodedColumn``s: codes into ``plan.occupation``, and
    into ``(0.0,)`` after the jump.  With ``record_steps``, a STEP row per
    grid step before the jump (all when censored) precedes a trajectory's
    terminal row; its ``t`` is a code into ``plan.grid`` and its ``traj_id``
    a code into the trajectories' ids.
    """
    decayed = np.flatnonzero(jump_steps >= 0)
    terminal = EventKind.PHOTON_DETECTION if model is Model.SWF else EventKind.QUANTUM_JUMP
    k = jump_steps[decayed]
    before = EncodedColumn(k, plan.occupation)
    after = EncodedColumn(np.zeros(k.size, dtype=np.int8), _AFTER_JUMP)
    rows = (first + decayed, decay_times[decayed], np.full(k.size, lockstep.KIND_CODE[terminal]), before, after)
    if not record_steps:
        return rows
    # every trajectory rides the same no-jump curve, so its STEP rows are
    # the first n_i steps of the grid: row j runs from grid point j to j + 1
    n_i = np.where(jump_steps < 0, plan.n_steps, jump_steps)
    j = lockstep.ragged(0 * n_i, n_i)
    end = j + 1
    steps = (
        EncodedColumn(np.repeat(np.arange(n_i.size), n_i), first + np.arange(n_i.size)),
        EncodedColumn(end, plan.grid),
        np.full(j.size, lockstep.KIND_CODE[EventKind.STEP]),
        EncodedColumn(j, plan.occupation),
        EncodedColumn(end, plan.occupation),
    )
    return lockstep.merge_rows(steps, rows)


def _step_decay_record(
    params: ModelParams,
    stream: RngStream,
    model: Model,
    initial_state: Optional[QubitState],
    record_steps: bool,
) -> TrajectoryRecord:
    """``_lockstep_step_decay`` over the one id of ``stream``, as a record."""
    ids = lockstep.stream_ids(stream, f"the {model.value} runner")
    plan = _step_plan(params, _decay_initial(initial_state), model)
    times, steps = _lockstep_step_decay(plan, stream.root_seed, ids)
    rows = _step_model_rows(plan, 0, steps, times, model, record_steps)  # the record drops traj_id
    k = int(steps[0])

    series = None
    if record_steps:
        series = plan.occupation.copy()
        if k >= 0:
            series[k + 1 :] = 0.0
    return TrajectoryRecord(
        traj_id=ids.start,
        events=lockstep.trajectory_events(*rows[1:]),
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


def _lockstep_nsm(params: ModelParams, w_exc0: float, seed: int, ids: range, forced: Optional[np.ndarray] = None):
    """The nsm decay engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    A fluctuation draws ``u`` after its gap and resets the atom where ``u <
    w * exp(-gamma*gap)``, ``w`` the excited weight at the last reset;
    otherwise it is terminal, and the emission time inside the gap comes
    from ``u`` by conditioning.  A ground input, or ``beta == 0`` without
    ``forced`` times, draws nothing.  Returns the decay times (nan where
    censored) and the columns of ``lockstep.joined_rounds`` in trajectory
    order: ``(traj, t, gap, drop, terminal, survive)`` and ``(traj, k_start,
    w, t_reset)``, from grid step ``k_start`` on ``w * exp(-gamma * (k * dt
    - t_reset))``: each trajectory starts with ``(0, w_exc0, 0)``, a reset at
    ``t`` adds ``(k, 1, t)`` and the jump ``(k, 0, 0)``, ``k`` the first grid
    step >= ``t``.
    """
    grid = np.arange(params.n_steps + 1) * params.dt
    m = len(ids)
    decay_times = np.full(m, math.nan)
    w = np.full(m, w_exc0)

    def reduce(draws, live, t, gap):
        survive = w[live] * lockstep.math_map(math.exp, -params.gamma * gap)
        u = draws.take(live, 1)
        # u < 1, so a terminal step has survive < 1 and conditions u without another draw
        terminal = u >= survive
        j = np.flatnonzero(terminal)
        v = (u[j] - survive[j]) / (1.0 - survive[j])
        decay_times[live[j]] = (t[j] - gap[j]) + lockstep.truncated_exponential_times(params.gamma, gap[j], v)
        w[live] = 1.0
        seg = (np.searchsorted(grid, t), np.where(terminal, 0.0, 1.0), np.where(terminal, 0.0, t))
        return (terminal, survive), seg, ~terminal

    live = np.arange(m if w_exc0 > 0.0 and (params.beta > 0.0 or forced is not None) else 0)
    first = (np.arange(m), np.zeros(m, dtype=np.int64), w.copy(), np.zeros(m))
    rounds = lockstep.fluctuation_rounds(params, seed, ids, live, reduce, forced)
    return decay_times, *lockstep.joined_rounds(params.gamma, first, rounds)


def _nsm_occupation(segments, gamma: float, grid: np.ndarray, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Occupation of trajectory ``traj`` at grid step ``k``, read off its segments; queries sorted on (traj, k)."""
    s = lockstep.covering_segment(segments, grid.size - 1, traj, k)
    return segments[2][s] * np.exp(-gamma * (grid[k] - segments[3][s]))


def _nsm_step_table(segments, gamma: float, grid: np.ndarray, m: int, fluct):
    """``lockstep.step_table`` of nsm trajectories ``0 .. m - 1``: no row from a jump's step on or at a fluctuation."""
    f_traj, f_t, terminal = fluct[0], fluct[1], fluct[4]
    n_rows = np.full(m, grid.size - 1)
    n_rows[f_traj[terminal]] = np.searchsorted(grid, f_t[terminal]) - 1
    return lockstep.step_table(partial(_nsm_occupation, segments, gamma, grid), grid, n_rows, f_traj, f_t)


def run_nsm_trajectory(
    params: ModelParams,
    stream: RngStream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
    fluctuation_times: Optional[Sequence[float]] = None,
) -> TrajectoryRecord:
    """One trajectory of the vacuum-fluctuation reduction engine.

    Fluctuations arrive as a rate-``beta`` point process (or at the injected
    ``fluctuation_times``, a deterministic test hook that must increase
    strictly from 0).  Between fluctuations the state follows the
    unconditioned unitary weights, so the occupation of a freshly reset atom
    decays as ``exp(-gamma * (t - t_reset))``.  Each fluctuation reduces the
    state by the Born rule: back to pure excited with the surviving weight,
    else terminally onto ground.  Fluctuation duration is treated as zero.

    ``beta == 0`` is the degenerate no-fluctuation limit: nothing ever jumps,
    the occupation decays smoothly, and the record is flagged.  ``stream``
    must be an ``RngStream`` (``derive_stream(seed, i)``); the result is
    trajectory ``i`` of the ensemble, the lock-step engine over that one id.
    """
    if params.model is not Model.NSM:
        raise ValueError(f"run_nsm_trajectory needs model=nsm, got {params.model.value}")
    ids = lockstep.stream_ids(stream, "run_nsm_trajectory")
    initial = _decay_initial(initial_state)
    forced = None if fluctuation_times is None else np.asarray(fluctuation_times, dtype=float).reshape(-1)
    if forced is not None and not np.all(np.diff(forced, prepend=0.0) > 0.0):  # also false on a NaN
        raise ValueError("fluctuation times must be strictly increasing from 0")
    times, fluct, segments = _lockstep_nsm(params, abs(initial.c_excited) ** 2, stream.root_seed, ids, forced)
    _, t, gap, drop, terminal, occ = fluct
    outcomes = [(NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)[b] for b in terminal.tolist()]
    nsm_events = tuple(map(NsmEvent, t.tolist(), gap.tolist(), drop.tolist(), outcomes))
    series = None
    rows = _nsm_rows(t, occ, terminal)
    if record_steps:
        k = np.arange(params.n_steps + 1)
        grid = k * params.dt
        series = _nsm_occupation(segments, params.gamma, grid, 0 * k, k)
        rows = lockstep.merge_rows(rows, _nsm_step_table(segments, params.gamma, grid, 1, fluct)[1:])
    return TrajectoryRecord(
        traj_id=ids.start,
        events=lockstep.trajectory_events(*rows),
        decay_time=None if math.isnan(times[0]) else float(times[0]),
        nsm_events=nsm_events,
        occupation_series=series,
        flags=(NSM_BETA_ZERO_FLAG,) if params.beta == 0.0 and fluctuation_times is None else (),
    )


def _nsm_rows(t: np.ndarray, occ: np.ndarray, terminal: np.ndarray):
    """Event rows ``(t, kind, before, after)`` of nsm fluctuations.

    A fluctuation resets the atom to excited, or, where ``terminal``, jumps
    it to ground; ``after`` is ``terminal`` as codes into ``(1.0, 0.0)``.
    """
    code = lockstep.KIND_CODE
    kind = np.where(terminal, code[EventKind.QUANTUM_JUMP], code[EventKind.FLUCTUATION_NO_JUMP])
    return t, kind, occ, EncodedColumn(terminal.astype(np.int8), _AFTER_FLUCTUATION)


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------


@dataclass
class EventTable:
    """Column-oriented event log, cheap to accumulate and to stream to CSV.

    ``kind`` holds int8 codes; code ``c`` is the kind ``lockstep.EVENT_KIND_NAMES[c]``.
    The other columns are ndarrays or ``EncodedColumn``s (codes into a
    values array, decoded by ``tolist()`` and ``numpy.asarray``), which the
    table writer formats once per distinct value: qmop/swf occupations are
    codes into the no-jump occupation grid (and ``(0.0,)`` after the jump),
    nsm ``occupation_after`` codes into ``(1.0, 0.0)``, and with
    ``record_steps`` the STEP rows' ``t`` codes into the step grid and
    ``traj_id`` codes into the ids of the trajectories.
    """

    traj_id: np.ndarray | EncodedColumn
    t: np.ndarray | EncodedColumn
    kind: np.ndarray
    occupation_before: np.ndarray | EncodedColumn
    occupation_after: np.ndarray | EncodedColumn

    def __len__(self) -> int:
        return len(self.kind)


@dataclass
class DecayBlock:
    """The trajectories ``ids`` of a decay run, consecutive ids in order.

    ``decay_times`` (NaN where censored) and, with ``bin_steps``,
    ``occupation_bins`` (each trajectory's bin means: the block's rows of
    the run's bin matrix, a view) have a row per id;
    ``events`` holds the block's event rows under their ensemble
    ``traj_id``.  An nsm block has the occupation drop of every fluctuation
    and whether it was terminal, in trajectory order.
    """

    ids: range
    decay_times: np.ndarray
    events: EventTable
    drop_samples: Optional[np.ndarray] = None
    drop_terminal: Optional[np.ndarray] = None
    occupation_bins: Optional[np.ndarray] = None


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


def run_decay_ensemble(
    params: ModelParams,
    initial_state: Optional[QubitState] = None,
    bin_steps: Optional[int] = None,
    record_steps: bool = False,
    on_block: Optional[Callable[[DecayBlock], None]] = None,
) -> EnsembleSummary | Tuple[str, ...]:
    """Run ``params.n_traj`` trajectories of the selected model, serially, a block of ids at a time.

    Trajectory ``i`` always consumes the substream ``derive_stream(seed, i)``.
    ``lockstep.run_groups`` runs blocks of consecutive ids,
    ``_LOCKSTEP_COUNTERS`` for qmop/swf and ``lockstep.GROUP_SIZE`` for nsm,
    whose bins fill their rows of one ``(n_traj, n_bins)`` matrix.  Without
    ``on_block`` the blocks' columns are joined in trajectory order into the
    returned summary, whose event table holds the scalar runners' ``events``
    in trajectory order, STEP rows only with ``record_steps``.  With it,
    each ``DecayBlock`` goes to ``on_block`` as soon as it is computed and is
    not kept, so the run holds one block and the matrix, and its flags are returned.
    """
    initial = _decay_initial(initial_state)
    model = params.model
    n_steps = params.n_steps

    if model is Model.NSM:
        w_exc0 = abs(initial.c_excited) ** 2
        grid = np.arange(n_steps + 1) * params.dt
        tables = np.stack([w_exc0 * np.exp(-params.gamma * grid), np.zeros(grid.size)])
        size = lockstep.GROUP_SIZE

        def block(ids: range, vals: np.ndarray) -> DecayBlock:
            m = len(ids)
            times, fluct, segments = _lockstep_nsm(params, w_exc0, params.seed, ids)
            traj, t, _, drop, terminal, occ = fluct
            rows = (ids.start + traj, *_nsm_rows(t, occ, terminal))
            if record_steps:
                step_traj, *cols = _nsm_step_table(segments, params.gamma, grid, m, fluct)
                rows = lockstep.merge_rows(rows, (EncodedColumn(step_traj, ids.start + np.arange(m)), *cols))
            if bin_steps:
                # every trajectory starts on one arc, and a jump starts a segment of zeros
                seg_table = np.where(segments[1] == 0, 0, np.where(segments[2] == 0.0, 1, -1))
                occupation = partial(_nsm_occupation, segments, params.gamma, grid)
                vals[:] = lockstep.segment_bin_means(segments, m, n_steps, bin_steps, tables, seg_table, occupation)
            return DecayBlock(ids, times, EventTable(*rows), drop, terminal)

    else:
        plan = _step_plan(params, initial, model)
        tables = np.stack([plan.occupation, np.zeros(n_steps + 1)])
        size = _LOCKSTEP_COUNTERS

        def block(ids: range, vals: np.ndarray) -> DecayBlock:
            m = len(ids)
            times, jump_steps = _lockstep_step_decay(plan, params.seed, ids)
            rows = _step_model_rows(plan, ids.start, jump_steps, times, model, record_steps)
            if bin_steps:
                # every trajectory starts on the no-jump curve, and its jump at k starts the zero row at k + 1
                jumped, start = np.flatnonzero(jump_steps >= 0), np.zeros(m, dtype=np.int64)
                segs = [(np.arange(m), start, start), (jumped, jump_steps[jumped] + 1, np.ones_like(jumped))]
                segments = lockstep.trajectory_order(segs)
                occupation = partial(lockstep.segment_occupation, tables, segments, n_steps)
                vals[:] = lockstep.segment_bin_means(segments, m, n_steps, bin_steps, tables, segments[2], occupation)
            return DecayBlock(ids, times, EventTable(*rows))

    def group(ids: range, vals: np.ndarray):
        b = block(ids, vals)
        b.occupation_bins = vals if bin_steps else None
        if on_block is not None:
            on_block(b)
            return ()
        events = tuple(getattr(b.events, f.name) for f in fields(EventTable))
        return (b.decay_times, *events, *((b.drop_samples, b.drop_terminal) if model is Model.NSM else ()))

    n_bins = n_steps // bin_steps if bin_steps else 0
    vals, *columns = lockstep.run_groups(group, params.n_traj, size, n_bins)
    flags = (NSM_BETA_ZERO_FLAG,) if model is Model.NSM and params.beta == 0.0 else ()
    if on_block is not None:
        return flags
    decay_times, *events = columns[:6]
    bins = lockstep.bin_statistics(vals, bin_steps, params.dt) if bin_steps else (None,) * 4
    n_censored = int(np.isnan(decay_times).sum())
    drops = columns[6:]  # nsm's drop_samples and drop_terminal
    return EnsembleSummary(model, params.n_traj, decay_times, n_censored, EventTable(*events), *bins, *drops, flags=flags)
