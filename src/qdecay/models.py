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
* nsm: per fluctuation, the gap uniform (redrawn while it is 0 or the gap
  ``-ln(u)/beta`` is 0), then the reduction uniform; the attribution uniform
  is recovered from the reduction draw by conditioning, so no extra draw is
  consumed.  Forced fluctuation times replace the gaps.  One engine,
  ``_lockstep_nsm``, reads these positions in the fluctuation loop it shares
  with the driven nsm engine; ``run_decay_ensemble`` runs it over groups of
  ids and ``run_nsm_trajectory`` over the one id of its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    MAX_GAMMA_DT,
    EncodedColumn,
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


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` over ``x``: numpy's transcendentals may round differently."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _truncated_exponential_times(rate: float, width, v: np.ndarray) -> np.ndarray:
    """Inverse-CDF samples of Exp(rate) conditioned on (0, width], one per ``v`` in [0, 1).

    ``width`` is an array like ``v`` or one float; samples are clamped to
    [ulp(0), width] against rounding.  The arithmetic, ``min`` and ``max``
    run in numpy, ``expm1`` and ``log1p`` on ``math``.
    """
    if rate <= 0.0:
        return np.where(v > 0.0, v, 0.5) * width
    x = -rate * width
    q = -(_math_map(math.expm1, x) if np.ndim(x) else math.expm1(x))
    s = -_math_map(math.log1p, -v * q) / rate
    return np.minimum(np.maximum(s, math.ulp(0.0)), width)


def _jump_strength(model: Model, gamma: float, dt: float) -> float:
    """Jump probability of one step from the excited state: swf ``1 - exp(-gamma*dt)``, qmop ``gamma*dt``."""
    return -math.expm1(-gamma * dt) if model is Model.SWF else gamma * dt


def decay_time_cdf(model: Model, gamma: float, dt: float):
    """The exact law ``F(t)`` of an excited start's decay time under ``model``, for an ndarray ``t``.

    A jump with per-step probability ``h``, placed inside its step by the truncated exponential,
    has ``F(k*dt + f) = 1 - (1-h)^k (1 - h expm1(-gamma f) / expm1(-gamma dt))``.  swf's
    ``h = 1 - exp(-gamma dt)`` gives the exponential law, which nsm follows too; qmop's
    ``h = gamma dt`` is off it by O(gamma dt).
    """
    h = _jump_strength(Model.SWF if model is Model.NSM else model, gamma, dt)

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


@dataclass(frozen=True)
class _StepPlan:
    """Deterministic no-jump data shared by every trajectory of an ensemble."""

    n_steps: int
    dt: float
    gamma: float
    occupation: np.ndarray  # occupation at step starts, length n_steps + 1
    jump_prob: np.ndarray  # per-step jump/detection probability, length n_steps


def _decay_initial(initial_state: Optional[QubitState]) -> QubitState:
    """The normalized start state of a decay run (excited when None), which must be two-level."""
    initial = QubitState.excited() if initial_state is None else normalize(initial_state)
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: decay engines start two-level")
    return initial


def _step_plan(params: ModelParams, initial: QubitState, model: Model) -> _StepPlan:
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
# A column may be an EncodedColumn; _merge_rows and _trajectory_events take both.
_KINDS = tuple(EventKind)
_CODE = {kind: np.int8(code) for code, kind in enumerate(_KINDS)}
# The name of each kind code, as the events table spells it.
EVENT_KIND_NAMES = tuple(kind.value for kind in _KINDS)
# Occupation after a jump, and after an nsm fluctuation (code 0: reset, 1: jump).
_AFTER_JUMP = (0.0,)
_AFTER_FLUCTUATION = (1.0, 0.0)


def _step_rows(series, dt: float, n: int, taken=()):
    """STEP rows ``(t, kind, before, after)`` at the ends of the first ``n`` grid steps.

    ``series`` holds the occupation at step starts.  Grid times in ``taken``
    are skipped: an event already logged there (a fluctuation or emission
    landing exactly on the grid) keeps the time.
    """
    t = np.arange(1, n + 1) * dt
    keep = ~np.isin(t, taken)
    return t[keep], np.full(keep.sum(), _CODE[EventKind.STEP]), series[:n][keep], series[1 : n + 1][keep]


def _joined(a, b):
    """Column ``a`` followed by column ``b``, encoded when the longer of the two is.

    Encoded columns join their codes, offsetting ``b``'s by the length of
    ``a``'s values unless the two share one values object; a shorter plain
    column joins as codes into itself, a shorter encoded one decoded.
    """
    if not isinstance(max(a, b, key=len), EncodedColumn):
        return np.concatenate((np.asarray(a), np.asarray(b)))
    a, b = (c if isinstance(c, EncodedColumn) else EncodedColumn(np.arange(len(c)), c) for c in (a, b))
    if a.values is b.values:
        return EncodedColumn(np.concatenate((a.codes, b.codes)), a.values)
    codes = np.concatenate((a.codes, b.codes)).astype(np.int64, copy=False)
    codes[len(a) :] += len(a.values)
    return EncodedColumn(codes, np.concatenate((np.asarray(a.values), np.asarray(b.values))))


def _merge_rows(first, second):
    """The rows of ``first`` then ``second``, stably sorted on their first column, then their second."""
    cols = list(map(_joined, first, second))
    order = np.lexsort((np.asarray(cols[1]), np.asarray(cols[0])))
    for i, c in enumerate(cols):  # one at a time, so each joined column is freed once gathered
        cols[i] = EncodedColumn(c.codes[order], c.values) if isinstance(c, EncodedColumn) else c[order]
    return tuple(cols)


def _ragged(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices ``start[i] .. start[i] + size[i] - 1`` of every window ``i``, in order."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


def _trajectory_events(t, kind, before, after) -> Tuple[TrajectoryEvent, ...]:
    """The ``TrajectoryEvent``s of one trajectory's event rows."""
    kinds = [_KINDS[c] for c in kind.tolist()]
    return tuple(map(TrajectoryEvent, t.tolist(), kinds, before.tolist(), after.tolist()))


def _step_model_rows(plan: _StepPlan, jump_steps, decay_times, model: Model, record_steps: bool):
    """Event rows ``(traj_id, t, kind, before, after)`` of qmop/swf trajectories ``0 .. n - 1``.

    Occupations are ``EncodedColumn``s: codes into ``plan.occupation``, and
    into ``(0.0,)`` after the jump.  With ``record_steps``, a STEP row per
    grid step before the jump (all when censored) precedes a trajectory's
    terminal row; its ``t`` is a code into the step grid and its ``traj_id``
    a code into ``arange(n)``.
    """
    decayed = np.flatnonzero(jump_steps >= 0)
    terminal = EventKind.PHOTON_DETECTION if model is Model.SWF else EventKind.QUANTUM_JUMP
    k = jump_steps[decayed]
    before = EncodedColumn(k, plan.occupation)
    after = EncodedColumn(np.zeros(k.size, dtype=np.int8), _AFTER_JUMP)
    rows = (decayed, decay_times[decayed], np.full(k.size, _CODE[terminal]), before, after)
    if not record_steps:
        return rows
    # every trajectory rides the same no-jump curve, so its STEP rows are
    # the first n_i steps of the grid: row j runs from grid point j to j + 1
    n_i = np.where(jump_steps < 0, plan.n_steps, jump_steps)
    j = _ragged(0 * n_i, n_i)
    end = j + 1
    grid = np.arange(plan.n_steps + 1) * plan.dt
    steps = (
        EncodedColumn(np.repeat(np.arange(n_i.size), n_i), np.arange(n_i.size)),
        EncodedColumn(end, grid),
        np.full(j.size, _CODE[EventKind.STEP]),
        EncodedColumn(j, plan.occupation),
        EncodedColumn(end, plan.occupation),
    )
    return _merge_rows(steps, rows)


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
    plan = _step_plan(params, _decay_initial(initial_state), model)
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


# Trajectories per nsm lock-step group (decay and driven), and per driven
# qmop/swf group: bounds the draw buffers, the per-fluctuation or emission
# columns and the binning temporaries.  On 4e4 driven trajectories of 12.5
# fluctuations each, groups of 8192 took ~10% less time than 2048 but
# peaked ~14 MB higher.
_NSM_GROUP = 2048
# Philox counters (four draws each) a trajectory's draw buffer holds.
_NSM_BUFFER_CTRS = 8
_NSM_BUFFER = 4 * _NSM_BUFFER_CTRS


class _StreamCursors:
    """Draw ``pos[j]`` of the stream ``(seed, ids[j])``, read by position from Philox blocks.

    Each trajectory keeps its own position and a window of the
    ``_NSM_BUFFER`` draws from ``base[j]`` on.  When one of the rows asked
    for runs short, every one of them whose position is in the upper half
    of its window slides it by half: the upper half moves down and only the
    counters of the new upper half are evaluated, so no ``(id, counter)``
    pair is evaluated twice, and refills batch into few ``philox_uniforms``
    calls.
    """

    def __init__(self, seed: int, ids: range):
        m = len(ids)
        self.seed = seed
        self.ids = ids.start + np.arange(m, dtype=np.uint64)
        self.pos = np.zeros(m, dtype=np.int64)
        self.base = np.full(m, -_NSM_BUFFER, dtype=np.int64)  # empty windows, ending before draw 0
        self.buf = np.empty((m, _NSM_BUFFER))

    def take(self, rows: np.ndarray, need: int) -> np.ndarray:
        """The next draw of each of ``rows``, after making sure ``need`` of them are buffered."""
        half = _NSM_BUFFER // 2
        left = self.base[rows] + _NSM_BUFFER - self.pos[rows]
        if (left < need).any():
            r = rows[left < half]
            self.base[r] += half
            self.buf[r, :half] = self.buf[r, half:]
            # draw d is lane d % 4 of counter d // 4 + 1
            counters = (self.base[r] + half)[:, None] // 4 + np.arange(1, half // 4 + 1)
            self.buf[r, half:] = philox_uniforms(self.seed, self.ids[r][:, None], counters).reshape(r.size, half)
        p = self.pos[rows]
        self.pos[rows] = p + 1
        return self.buf[rows, p - self.base[rows]]


def _fluctuation_gaps(draws: _StreamCursors, rows: np.ndarray, beta: float) -> np.ndarray:
    """One gap ``-ln(u)/beta`` per row, each redrawing u while the gap is not positive.

    The masked form of ``_fluctuation_gap``: rows whose ``u`` is 0, or whose
    gap underflows to 0, draw again; the others are done.
    """
    gaps = np.empty(rows.size)
    todo = np.arange(rows.size)
    while todo.size:
        u = draws.take(rows[todo], 3)  # the gap, the reduction and the driven photon
        gap = np.zeros(todo.size)
        drawn = u > 0.0
        gap[drawn] = -_math_map(math.log, u[drawn]) / beta
        done = gap > 0.0
        gaps[todo[done]] = gap[done]
        todo = todo[~done]
    return gaps


def _trajectory_order(rounds: list) -> Tuple[np.ndarray, ...]:
    """The rounds' column tuples joined and stably sorted on their first column.

    Empties ``rounds``: one column at a time is joined, its pieces released
    and the join gathered in order.
    """
    columns = [list(c) for c in zip(*rounds)]
    rounds.clear()
    out = []
    for pieces in columns:
        joined = np.concatenate(pieces)
        pieces.clear()
        if not out:
            order = np.argsort(joined, kind="stable")
        out.append(joined[order])
    return tuple(out)


def _covering_segment(segments, n: int, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Index of the segment that holds step ``k`` of trajectory ``traj``, for queries sorted on (traj, k).

    It is the trajectory's last segment starting at or before ``k`` (an
    empty segment, from several fluctuations in one step, never is).  Each
    segment of the queried trajectories marks the first query at or after
    its start, and a running maximum over the marks carries it forward.
    """
    key = traj * (n + 2) + k
    lo, hi = np.searchsorted(segments[0], (traj[0], traj[-1] + 1)) if traj.size else (0, 0)
    seg_key = segments[0][lo:hi] * (n + 2) + segments[1][lo:hi]
    mark = np.zeros(key.size + 1, dtype=np.int64)
    np.maximum.at(mark, np.searchsorted(key, seg_key), np.arange(lo, hi))
    return np.maximum.accumulate(mark[:-1])


def _segment_occupation(tables: np.ndarray, segments, n: int, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Occupation of trajectory ``traj`` at step ``k``, row ``table`` of ``tables`` from its segment's start."""
    s = _covering_segment(segments, n, traj, k)
    return tables[segments[2][s], k - segments[1][s]]


# Elements materialised at once when summing bins.
_BIN_ELEMENTS = 1 << 16


def _window_sums(size: np.ndarray, elements) -> np.ndarray:
    """``np.add.reduceat`` sums of consecutive windows of the given sizes.

    ``elements(w)`` returns the elements of the windows in slice ``w``, in
    order; it is called for slices of about ``_BIN_ELEMENTS`` elements.
    """
    sums = np.empty(size.size)
    per = max(1, _BIN_ELEMENTS // int(size.max())) if size.size else 1
    for lo in range(0, size.size, per):
        w = slice(lo, lo + per)
        first = np.cumsum(size[w]) - size[w]
        sums[w] = np.add.reduceat(elements(w).reshape(-1), first)
    return sums


def _segment_bin_means(segments, m: int, n: int, bin_steps: int, tables, seg_table, occupation) -> np.ndarray:
    """Per-trajectory occupation means over the bins of ``bin_steps`` steps, from segments.

    The values equal ``np.add.reduceat(series[:n], edges[:-1]) / bin_steps``
    of each trajectory's occupation series bit for bit, without building it:
    every bin sum is a reduceat over the bin's own elements, in order.  A
    segment ``s`` with ``seg_table[s] >= 0`` reads that row of ``tables``
    from its start, so the whole bins inside it are windows 0, 1, ... of the
    row from the phase of its first bin edge; each window of a (row, phase)
    pair is summed once, however many segments use it.  The other bins (cut
    by a segment start, in another segment, or the longer last bin when
    ``bin_steps`` does not divide ``n``) are summed over elements read by
    ``occupation(traj, k)``.  Trajectories go in blocks of about
    ``_BIN_ELEMENTS`` bins, which bounds the per-bin index arrays.  Returns
    an (m, n_bins) array.
    """
    n_bins = n // bin_steps
    means = np.empty((m, n_bins))
    if not n_bins:
        return means
    seg_traj, k_start = segments[0], segments[1]
    # a segment runs to the next one's start, the last of its trajectory to step n
    k_end = np.append(k_start[1:], n)
    k_end[np.flatnonzero(seg_traj[1:] != seg_traj[:-1])] = n
    b_lo = -(-k_start // bin_steps)
    whole = np.minimum(k_end // bin_steps, n_bins - (n % bin_steps > 0)) - b_lo
    count = np.where(seg_table >= 0, np.maximum(whole, 0), 0)
    pair = seg_table.clip(0) * bin_steps + b_lo * bin_steps - k_start
    longest = np.zeros(tables.shape[0] * bin_steps, dtype=np.int64)
    np.maximum.at(longest, pair, count)
    used = np.flatnonzero(longest)
    # window j of pair (row r, phase p) starts at element p + j * bin_steps of row r
    first = np.repeat(used // bin_steps * tables.shape[1] + used % bin_steps, longest[used])
    first += _ragged(0 * used, longest[used]) * bin_steps
    width = np.full(first.size, bin_steps)
    windows = _window_sums(width, lambda w: tables.reshape(-1)[_ragged(first[w], width[w])]) / bin_steps
    run_slot = (np.cumsum(longest) - longest)[pair]
    per = max(1, _BIN_ELEMENTS // n_bins)
    for lo in range(0, m, per):
        block = means[lo : lo + per].reshape(-1)
        seg = slice(*np.searchsorted(seg_traj, (lo, lo + per)))
        run = (seg_traj[seg] - lo) * n_bins + b_lo[seg]
        pos = _ragged(run, count[seg])
        block[pos] = windows[pos - np.repeat(run - run_slot[seg], count[seg])]
        rest = np.ones(block.size, dtype=bool)
        rest[pos] = False
        traj, b = np.divmod(np.flatnonzero(rest), n_bins)
        k, size = b * bin_steps, np.where(b < n_bins - 1, bin_steps, n - b * bin_steps)
        sums = _window_sums(size, lambda w: occupation(np.repeat(lo + traj[w], size[w]), _ragged(k[w], size[w])))
        block[rest] = sums / bin_steps
    return means


def _fluctuation_rounds(params: ModelParams, seed: int, ids: range, live: np.ndarray, first, reduce, forced=None):
    """The nsm fluctuation loop over the streams ``(seed, i)``, ``i`` in ``ids``.

    One round advances every trajectory in ``live`` by one fluctuation: the
    gap (redrawn while ``u == 0`` or the gap is 0), or the next ``forced``
    time whatever ``beta``, then ``reduce(draws, live, t, gap)``, which draws
    the rest and returns the fluctuations' columns, the columns of the
    segments they start and a mask of the trajectories that go on.  A
    trajectory also leaves when its next fluctuation falls past ``t_max``.
    Returns two lists with a column tuple per round, ``(traj, t, gap, drop,
    ...)`` and ``(traj, k_start, ...)``, ``first`` the segments from step 0,
    for ``_trajectory_order`` to put in trajectory order.
    """
    m = len(ids)
    draws = _StreamCursors(seed, ids)
    t_prev = np.zeros(m)
    times = None if forced is None else iter(forced.tolist())
    fluct = []
    segs = [(np.arange(m), np.zeros(m, dtype=np.int64), *first)]
    while True:
        if times is None:
            gap = _fluctuation_gaps(draws, live, params.beta)
            t = t_prev[live] + gap
        else:  # past the last forced time every trajectory leaves
            t = np.full(live.size, next(times, math.inf))
            gap = t - t_prev[live]
        inside = t <= params.t_max
        live, gap, t = live[inside], gap[inside], t[inside]
        cols, seg, stay = reduce(draws, live, t, gap)
        fluct.append((live, t, gap, -_math_map(math.expm1, -params.gamma * gap), *cols))
        segs.append((live, *seg))
        if not live.size:
            break
        live, t = live[stay], t[stay]
        t_prev[live] = t
    return fluct, segs


def _lockstep_nsm(params: ModelParams, w_exc0: float, seed: int, ids: range, forced: Optional[np.ndarray] = None):
    """The nsm decay engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    A fluctuation draws ``u`` after its gap and resets the atom where ``u <
    w * exp(-gamma*gap)``, ``w`` the excited weight at the last reset;
    otherwise it is terminal, and the emission time inside the gap comes
    from ``u`` by conditioning.  A ground input, or ``beta == 0`` without
    ``forced`` times, draws nothing.  Returns the decay times (nan where
    censored) and the columns of ``_fluctuation_rounds`` in trajectory
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
        survive = w[live] * _math_map(math.exp, -params.gamma * gap)
        u = draws.take(live, 1)
        # u < 1, so a terminal step has survive < 1 and conditions u without another draw
        terminal = u >= survive
        j = np.flatnonzero(terminal)
        v = (u[j] - survive[j]) / (1.0 - survive[j])
        decay_times[live[j]] = (t[j] - gap[j]) + _truncated_exponential_times(params.gamma, gap[j], v)
        w[live] = 1.0
        seg = (np.searchsorted(grid, t), np.where(terminal, 0.0, 1.0), np.where(terminal, 0.0, t))
        return (terminal, survive), seg, ~terminal

    live = np.arange(m if w_exc0 > 0.0 and (params.beta > 0.0 or forced is not None) else 0)
    rounds = _fluctuation_rounds(params, seed, ids, live, (w.copy(), np.zeros(m)), reduce, forced)
    return decay_times, *map(_trajectory_order, rounds)


def _nsm_occupation(segments, gamma: float, grid: np.ndarray, traj: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Occupation of trajectory ``traj`` at grid step ``k``, read off its segments; queries sorted on (traj, k)."""
    s = _covering_segment(segments, grid.size - 1, traj, k)
    return segments[2][s] * np.exp(-gamma * (grid[k] - segments[3][s]))


def _nsm_step_table(segments, gamma: float, grid: np.ndarray, m: int, fluct):
    """STEP rows ``(traj, t, kind, before, after)`` of trajectories ``0 .. m - 1``, read off their segments.

    A trajectory has a row at the end of every grid step before its jump
    (every step when censored), except at grid times its fluctuations take.
    ``t`` is an ``EncodedColumn`` of codes into ``grid``.
    """
    f_traj, f_t, terminal = fluct[0], fluct[1], fluct[4]
    n = grid.size - 1
    n_rows = np.full(m, n)
    n_rows[f_traj[terminal]] = np.searchsorted(grid, f_t[terminal]) - 1
    size = n_rows + 1  # grid points 0 .. n_rows
    traj = np.repeat(np.arange(m), size)
    k = _ragged(0 * size, size)
    occ = _nsm_occupation(segments, gamma, grid, traj, k)
    k_f = np.minimum(np.searchsorted(grid, f_t), n)
    taken = (f_traj * (n + 2) + k_f)[grid[k_f] == f_t]
    row = np.flatnonzero((k < n_rows[traj]) & ~np.isin(traj * (n + 2) + k + 1, taken))
    t = EncodedColumn(k[row] + 1, grid)
    return traj[row], t, np.full(row.size, _CODE[EventKind.STEP]), occ[row], occ[row + 1]


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
    if not isinstance(stream, RngStream):
        name = type(stream).__name__
        raise TypeError(f"run_nsm_trajectory takes an RngStream from derive_stream(), got {name}")
    initial = _decay_initial(initial_state)
    forced = None if fluctuation_times is None else np.asarray(fluctuation_times, dtype=float).reshape(-1)
    if forced is not None and not np.all(np.diff(forced, prepend=0.0) > 0.0):  # also false on a NaN
        raise ValueError("fluctuation times must be strictly increasing from 0")
    w_exc0, i = abs(initial.c_excited) ** 2, stream.stream_id
    times, fluct, segments = _lockstep_nsm(params, w_exc0, stream.root_seed, range(i, i + 1), forced)
    _, t, gap, drop, terminal, occ = fluct
    outcomes = [(NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)[b] for b in terminal.tolist()]
    nsm_events = tuple(map(NsmEvent, t.tolist(), gap.tolist(), drop.tolist(), outcomes))
    series = None
    rows = _nsm_rows(t, occ, terminal)
    if record_steps:
        k = np.arange(params.n_steps + 1)
        grid = k * params.dt
        series = _nsm_occupation(segments, params.gamma, grid, 0 * k, k)
        rows = _merge_rows(rows, _nsm_step_table(segments, params.gamma, grid, 1, fluct)[1:])
    return TrajectoryRecord(
        traj_id=i,
        events=_trajectory_events(*rows),
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
    kind = np.where(terminal, _CODE[EventKind.QUANTUM_JUMP], _CODE[EventKind.FLUCTUATION_NO_JUMP])
    return t, kind, occ, EncodedColumn(terminal.astype(np.int8), _AFTER_FLUCTUATION)


# ---------------------------------------------------------------------------
# ensemble runner
# ---------------------------------------------------------------------------


@dataclass
class EventTable:
    """Column-oriented event log, cheap to accumulate and to stream to CSV.

    ``kind`` holds int8 codes; code ``c`` is the kind ``EVENT_KIND_NAMES[c]``.
    The other columns are ndarrays or ``EncodedColumn``s (codes into a
    values array, decoded by ``tolist()`` and ``numpy.asarray``), which the
    table writer formats once per distinct value: qmop/swf occupations are
    codes into the no-jump occupation grid (and ``(0.0,)`` after the jump),
    nsm ``occupation_after`` codes into ``(1.0, 0.0)``, and with
    ``record_steps`` the STEP rows' ``t`` codes into the step grid and
    ``traj_id`` codes into ``arange(n_traj)``.
    """

    traj_id: np.ndarray | EncodedColumn
    t: np.ndarray | EncodedColumn
    kind: np.ndarray
    occupation_before: np.ndarray | EncodedColumn
    occupation_after: np.ndarray | EncodedColumn

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


def run_decay_ensemble(
    params: ModelParams,
    initial_state: Optional[QubitState] = None,
    bin_steps: Optional[int] = None,
    record_steps: bool = False,
) -> EnsembleSummary:
    """Run ``params.n_traj`` trajectories of the selected model, serially.

    Trajectory ``i`` always consumes the substream ``derive_stream(seed, i)``
    and the engine's groups are joined in trajectory order.  The event table
    holds the scalar runners' ``events`` in trajectory order, STEP rows only
    with ``record_steps``.
    """
    initial = _decay_initial(initial_state)
    n = params.n_traj
    model = params.model
    n_bins = (params.n_steps // bin_steps) if bin_steps else 0
    edges = np.arange(n_bins + 1) * (bin_steps or 1)
    drops = terminal = None
    flags: Tuple[str, ...] = ()

    if model in (Model.QMOP, Model.SWF):
        plan = _step_plan(params, initial, model)
        decay_times, jump_steps = _lockstep_step_decay(plan, params.seed, range(n))
        rows = _step_model_rows(plan, jump_steps, decay_times, model, record_steps)
        if bin_steps:
            # every trajectory starts on the no-jump curve, and its jump at k starts the zero row at k + 1
            jumped, start = np.flatnonzero(jump_steps >= 0), np.zeros(n, dtype=np.int64)
            segments = _trajectory_order([(np.arange(n), start, start), (jumped, jump_steps[jumped] + 1, np.ones_like(jumped))])
            tables = np.stack([plan.occupation, np.zeros(params.n_steps + 1)])
            occupation = partial(_segment_occupation, tables, segments, params.n_steps)
            vals = _segment_bin_means(segments, n, params.n_steps, bin_steps, tables, segments[2], occupation)
    elif model is not Model.NSM:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown model {model}")
    else:
        w_exc0 = abs(initial.c_excited) ** 2
        grid = np.arange(params.n_steps + 1) * params.dt
        tables = np.stack([w_exc0 * np.exp(-params.gamma * grid), np.zeros(grid.size)])

        def group(lo: int):
            ids = range(lo, min(lo + _NSM_GROUP, n))
            m = len(ids)
            times, fluct, segments = _lockstep_nsm(params, w_exc0, params.seed, ids)
            traj, t, _, drop, terminal, occ = fluct
            vals = np.empty((m, 0))
            if bin_steps:
                # every trajectory starts on one arc, and a jump starts a segment of zeros
                seg_table = np.where(segments[1] == 0, 0, np.where(segments[2] == 0.0, 1, -1))
                occupation = partial(_nsm_occupation, segments, params.gamma, grid)
                vals = _segment_bin_means(segments, m, params.n_steps, bin_steps, tables, seg_table, occupation)
            steps = ()
            if record_steps:
                step_traj, step_t, *cols = _nsm_step_table(segments, params.gamma, grid, m, fluct)
                steps = (lo + step_traj, step_t.codes, *cols)
            return (times, lo + traj, t, occ, drop, terminal, vals, *steps)

        groups = map(group, range(0, n, _NSM_GROUP))
        decay_times, traj_id, t_fluct, occ, drops, terminal, vals, *steps = map(np.concatenate, zip(*groups))
        rows = (traj_id, *_nsm_rows(t_fluct, occ, terminal))
        if record_steps:
            step_traj, step_t, *cols = steps
            steps = (EncodedColumn(step_traj, np.arange(n)), EncodedColumn(step_t, grid), *cols)
            rows = _merge_rows(rows, steps)
        if params.beta == 0.0:
            flags = (NSM_BETA_ZERO_FLAG,)

    summary = EnsembleSummary(
        model=model,
        n_traj=n,
        decay_times=decay_times,
        n_censored=int(np.isnan(decay_times).sum()),
        events=EventTable(*rows),
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
