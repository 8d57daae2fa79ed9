"""Driven two-level dynamics: analytic occupation laws and Monte Carlo
fluorescence under each decay model.

The drive is resonant and treated in the rotating frame: each step applies
the rotation generated by (omega_rabi/2) * sigma_x for a duration dt, then
the selected model's decay step.  Emission is non-terminal here: after a
jump the atom restarts from the ground state and keeps being driven, and
every emission is logged as a photon-detection event.

Convention note: with this generator the undamped occupation from the ground
state is sin^2(omega_rabi*t/2) = (1 - cos(omega_rabi*t))/2, matching the
zero-damping limit of ``torrey_occupation``.  ``rabi_occupation_undamped``
exposes the sin^2(omega_rabi*t) form verbatim, which corresponds to doubling
the drive frequency; the two conventions differ by that factor of two and
``torrey_occupation``'s is the one the engines follow.

Draw order per trajectory (part of the reproducibility contract):

* nsm: per fluctuation, the gap uniform of the fluctuation loop nsm decay
  shares (``lockstep.fluctuation_rounds``, whose module states that part of
  the order), the reduction uniform and, on the to-ground branch only, the
  photon uniform.  ``_lockstep_driven_nsm`` reads them by position from the
  Philox4x64-10 streams.
* qmop / swf: from each reset, one check uniform for every remaining step,
  drawn at once, then the attribution uniform if a check hit, from the
  stream's ``Generator`` (``_driven_hits``).

Both engines give emissions and segments ``(traj, k_start, table)``: from
step ``k_start`` on, a trajectory's occupation is row ``table`` of the
plan's ``occ``; the nsm engine hands them over a fluctuation round at a
time, and its callers keep the rows they read.  ``run_driven_ensemble`` runs
the model's engine over groups of ids and bins through
``lockstep.segment_bin_means``; ``run_driven_trajectory`` runs it over the
one id of its stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import lockstep
from .core import EventKind, Model, ModelParams, QubitState, RngStream, TrajectoryRecord, rekeyed_generators
from .models import NsmEvent, NsmOutcome, jump_strength, occupation_drop_density

MAX_DRIVEN_STEP = 0.05  # guard on dt * max(gamma, omega_rabi)


@dataclass(frozen=True)
class DriveParams:
    """Resonant drive strength, given directly or via dipole and field vectors.

    With both vectors given, the Rabi frequency is their dot product (charge
    constant folded to one) and any explicit ``omega_rabi`` must agree.
    """

    omega_rabi: Optional[float] = None
    dipole: Optional[Tuple[float, float, float]] = None
    field: Optional[Tuple[float, float, float]] = None

    def __post_init__(self) -> None:
        if (self.dipole is None) != (self.field is None):
            raise ValueError("dipole and field must be given together")
        if self.dipole is not None:
            dipole = tuple(float(x) for x in self.dipole)
            field = tuple(float(x) for x in self.field)
            if len(dipole) != 3 or len(field) != 3:
                raise ValueError("dipole and field must be 3-vectors")
            object.__setattr__(self, "dipole", dipole)
            object.__setattr__(self, "field", field)
            derived = rabi_frequency(dipole, field)
            if self.omega_rabi is None:
                object.__setattr__(self, "omega_rabi", derived)
            elif abs(derived - self.omega_rabi) > 1e-9 * max(1.0, abs(derived)):
                raise ValueError(
                    f"inconsistent drive: dipole.field = {derived:g} but "
                    f"omega_rabi = {self.omega_rabi:g}"
                )
        if self.omega_rabi is None:
            raise ValueError("omega_rabi is required (directly or via dipole and field)")
        object.__setattr__(self, "omega_rabi", float(self.omega_rabi))
        if self.omega_rabi < 0.0:
            raise ValueError(f"omega_rabi must be >= 0, got {self.omega_rabi}")


def rabi_frequency(dipole: Sequence[float], field: Sequence[float]) -> float:
    """Dot product of the transition dipole and the field amplitude."""
    d = np.asarray(dipole, dtype=float)
    f = np.asarray(field, dtype=float)
    if d.shape != (3,) or f.shape != (3,):
        raise ValueError("dipole and field must be 3-vectors")
    return float(np.dot(d, f))


def rabi_occupation_undamped(omega_rabi: float, t):
    """Undamped driven occupation sin^2(omega_rabi * t), for n(0) = 0."""
    return np.square(np.sin(omega_rabi * np.asarray(t, dtype=float)))[()]


def torrey_occupation(omega_rabi: float, gamma: float, t):
    """Damped driven occupation, tending to 1/2 at long times.

    n(t) = (1/2) [1 - (cos(W t) + (gamma / 2W) sin(W t)) exp(-gamma t / 2)]
    with W = omega_rabi; clamped to [0, 1] against floating residue.
    """
    if not omega_rabi > 0.0:
        raise ValueError(f"omega_rabi must be > 0, got {omega_rabi}")
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    tt = np.asarray(t, dtype=float)
    if np.any(tt < 0.0):
        raise ValueError("negative time")
    osc = np.cos(omega_rabi * tt) + (gamma / (2.0 * omega_rabi)) * np.sin(omega_rabi * tt)
    val = 0.5 * (1.0 - osc * np.exp(-0.5 * gamma * tt))
    return np.clip(val, 0.0, 1.0)[()]


# ---------------------------------------------------------------------------
# driven trajectory engine
# ---------------------------------------------------------------------------


def _driven_table(params: ModelParams, omega: float, start: QubitState, occ: np.ndarray, live: np.ndarray) -> None:
    """Fill ``occ`` and ``live`` with the between-jump evolution from ``start``.

    ``live`` is the plan's per-step table of the model (see ``_DrivenPlan``).
    The amplitudes stay unnormalized on the step grid (rotation then decay
    factor per step, which is linear).
    """
    n = params.n_steps
    dt = params.dt
    half = 0.5 * omega * dt
    c, s = math.cos(half), math.sin(half)
    decay_e = math.exp(-0.5 * params.gamma * dt) * complex(
        math.cos(params.omega1 * dt), -math.sin(params.omega1 * dt)
    )
    decay_g = complex(math.cos(params.omega0 * dt), -math.sin(params.omega0 * dt))

    amp_e = np.empty(n + 1, dtype=complex)
    amp_g = np.empty(n + 1, dtype=complex)
    rot_e = np.empty(n, dtype=complex)  # excited amplitude right after the rotation
    ae, ag = start.c_excited, start.c_ground
    norm0 = abs(ae) ** 2 + abs(ag) ** 2
    amp_e[0], amp_g[0] = ae, ag
    for k in range(n):
        re_ = c * ae - 1j * s * ag
        rg_ = -1j * s * ae + c * ag
        rot_e[k] = re_
        ae, ag = re_ * decay_e, rg_ * decay_g
        amp_e[k + 1], amp_g[k + 1] = ae, ag

    w_e = np.abs(amp_e) ** 2
    w_g = np.abs(amp_g) ** 2
    if params.model is Model.NSM:
        np.divide(w_e, norm0, out=occ)
        np.divide(norm0 - w_e - w_g, norm0, out=live)
    else:
        total = w_e + w_g
        np.divide(w_e, total, out=occ)
        np.multiply(np.abs(rot_e) ** 2 / total[:n], jump_strength(params.model, params.gamma, dt), out=live)


@dataclass(frozen=True)
class _DrivenPlan:
    """Deterministic between-jump evolution of a driven run, one table row per start state.

    Row 0 starts from the initial state, row 1 from excited (an nsm reset)
    and row 2 from ground (an emission, or an nsm reduction onto ground); a
    segment's table is its row.  ``occ`` is the occupation at step starts.
    ``live`` is the model's one per-step table: under qmop/swf the emission
    check of each step, ``(3, n_steps)``; under nsm, whose amplitudes stay
    unitary-weighted so that ``occ`` is also the Born weight of the excited
    branch, the weight leaked to the continuum since the segment start,
    ``(3, n_steps + 1)``.
    """

    params: ModelParams
    occ: np.ndarray  # (3, n_steps + 1)
    live: np.ndarray


def _driven_plan(params: ModelParams, drive: DriveParams, initial_state: Optional[QubitState]) -> _DrivenPlan:
    """The plan of a driven run from ``initial_state`` (ground when None), which must be two-level.

    A nonzero ``params.omega_rabi`` must be the drive's: the engines read ``drive.omega_rabi`` only.
    """
    if params.omega_rabi and params.omega_rabi != drive.omega_rabi:
        raise ValueError(
            f"drive mismatch: params.omega_rabi = {params.omega_rabi!r} but drive.omega_rabi = {drive.omega_rabi!r}"
        )
    initial = QubitState.ground() if initial_state is None else initial_state
    if initial.w_photon != 0.0:
        raise ValueError("photon component present: driven runs start two-level")
    if params.dt * max(params.gamma, drive.omega_rabi) > MAX_DRIVEN_STEP:
        raise ValueError(
            f"step too large: dt*max(gamma, omega_rabi) = "
            f"{params.dt * max(params.gamma, drive.omega_rabi):g} exceeds {MAX_DRIVEN_STEP}"
        )
    n = params.n_steps
    occ, live = np.empty((3, n + 1)), np.empty((3, n + 1 if params.model is Model.NSM else n))
    for row, start in enumerate((initial, QubitState.excited(), QubitState.ground())):
        _driven_table(params, drive.omega_rabi, start, occ[row], live[row])
    return _DrivenPlan(params, occ, live)


def _driven_hits(plan: _DrivenPlan, seed: int, ids: range):
    """The hit reader of driven qmop/swf over the streams ``(seed, i)``, ``i`` in ``ids``.

    From each reset, step 0 on the initial table and then the step after
    each hit on the ground table, the stream's ``Generator`` draws one check
    uniform per remaining step at once, then the attribution uniform of the
    first hit.  Returns ``(traj, k, v)`` per emission in trajectory order:
    the offset into ``ids``, the step of the hit and the attribution uniform.
    """
    n = plan.params.n_steps
    traj, steps, uniforms = [], [], []
    for row, (_, gen) in enumerate(rekeyed_generators(seed, ids)):
        prob, k0 = plan.live[0], 0
        while k0 < n:
            hit = gen.random(n - k0) < prob[: n - k0]
            j = int(hit.argmax())
            if not hit[j]:
                break
            traj.append(row)
            steps.append(k0 + j)
            uniforms.append(gen.random())
            prob, k0 = plan.live[2], k0 + j + 1
    return np.array(traj, dtype=np.int64), np.array(steps, dtype=np.int64), np.array(uniforms)


def _driven_step_engine(plan: _DrivenPlan, seed: int, ids: range):
    """The driven qmop/swf engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    An emission at step ``k`` happens at ``k * dt`` plus the Exp(gamma) time
    within the step that its attribution uniform gives.  Returns the rounds
    of emissions ``(traj, t, k)`` and of segments ``(traj, k_start, table)``
    for ``lockstep.trajectory_order``: each trajectory starts on table 0 at step 0,
    and its emission at ``k`` starts table 2 at ``k + 1``.
    """
    traj, k, v = _driven_hits(plan, seed, ids)
    p, start = plan.params, np.zeros(len(ids), dtype=np.int64)
    t = k * p.dt + lockstep.truncated_exponential_times(p.gamma, p.dt, v)
    return [(traj, t, k)], [(np.arange(len(ids)), start, start), (traj, k + 1, np.full(k.size, 2))]


def _lockstep_driven_nsm(plan: _DrivenPlan, seed: int, ids: range):
    """The driven nsm engine over the streams ``(seed, i)``, ``i`` in ``ids``.

    Fluctuation times stay continuous (gaps are exact exponential draws) but
    each reduction is applied at the end of the step containing it, an O(dt)
    approximation consistent with the step discretization.  A reduction onto
    the ground branch resolves the photon by the Born rule within the branch
    and only then counts as an emission.

    Each trajectory keeps its table (0 initial, 1 excited, 2 ground) and the
    step ``k0`` the table started at.  A fluctuation at ``t`` applies at step
    ``b = ceil(t/dt)``, clamped to ``k0 .. n_steps``: it draws the reduction
    against the table's occupation there and, on the to-ground branch only,
    the photon.

    Returns the segments from step 0 and the rounds of
    ``lockstep.fluctuation_rounds``: fluctuations ``(traj, t, gap, to_ground,
    emitted, p_exc)`` and segments ``(traj, k_start, table)``.  The rounds
    are computed as they are read.
    """
    n, dt = plan.params.n_steps, plan.params.dt
    m = len(ids)
    table = np.zeros(m, dtype=np.int64)
    k0 = np.zeros(m, dtype=np.int64)

    def reduce(draws, live, t, gap):
        start = k0[live]
        cur = table[live]
        b = np.minimum(np.maximum(np.ceil(t / dt).astype(np.int64), start), n)
        p_exc = plan.occ[cur, b - start]
        to_ground = ~(draws.take(live, 2) < p_exc)
        ground = np.flatnonzero(to_ground)
        ground_branch = 1.0 - p_exc[ground]
        p_photon = np.zeros(ground.size)
        np.divide(plan.live[cur[ground], (b - start)[ground]], ground_branch, out=p_photon, where=ground_branch > 0.0)
        emitted = np.zeros(live.size, dtype=bool)
        emitted[ground] = draws.take(live[ground], 1) < p_photon
        table[live] = np.where(to_ground, 2, 1)
        k0[live] = b
        return (to_ground, emitted, p_exc), (b, table[live]), np.ones(live.size, dtype=bool)

    live = np.arange(m if plan.params.beta > 0.0 else 0)
    first = (np.arange(m), k0.copy(), table.copy())
    return first, lockstep.fluctuation_rounds(plan.params, seed, ids, live, reduce)


def run_driven_trajectory(
    params: ModelParams,
    drive: DriveParams,
    stream: RngStream,
    initial_state: Optional[QubitState] = None,
    record_steps: bool = False,
) -> TrajectoryRecord:
    """One continuously driven trajectory under the selected decay model.

    Per step: rotating-frame drive rotation, then the model's decay step.
    Jumps reset the atom to the ground state and the drive continues, so a
    single trajectory can emit many photons; each one is a photon-detection
    event.  The default initial state is the ground state.  ``stream`` must
    be an ``RngStream`` (``derive_stream(seed, i)``); the result is
    trajectory ``i`` of the ensemble, the model's engine run over that one id.
    """
    ids = lockstep.stream_ids(stream, "run_driven_trajectory")
    plan = _driven_plan(params, drive, initial_state)
    occ, n = plan.occ, params.n_steps
    nsm_events: tuple = ()
    if params.model is Model.NSM:
        events, segments = lockstep.joined_rounds(params.gamma, *_lockstep_driven_nsm(plan, stream.root_seed, ids))
        _, t_c, gap, drop, to_ground, emitted, p_exc = events
        outcomes = [(NsmOutcome.RESET_TO_EXCITED, NsmOutcome.JUMP_TO_GROUND)[b] for b in to_ground.tolist()]
        nsm_events = tuple(map(NsmEvent, t_c.tolist(), gap.tolist(), drop.tolist(), outcomes))
        t, occ_before = t_c[emitted], p_exc[emitted]
    else:  # the occupation at the start of the emission's step
        (traj, t, k), segments = map(lockstep.trajectory_order, _driven_step_engine(plan, stream.root_seed, ids))
        occ_before = lockstep.segment_occupation(occ, segments, n, traj, k)
    rows = (t, np.full(t.size, lockstep.KIND_CODE[EventKind.PHOTON_DETECTION]), occ_before, np.zeros(t.size))
    series = None
    if record_steps:
        k = np.arange(n + 1)
        series = lockstep.segment_occupation(occ, segments, n, np.zeros_like(k), k)
        steps = lockstep.step_table(lambda _, j: series[j], k * params.dt, np.array([n]), np.zeros_like(t, int), t)
        rows = lockstep.merge_rows(rows, steps[1:])

    return TrajectoryRecord(
        traj_id=ids.start,
        events=lockstep.trajectory_events(*rows),
        decay_time=None,
        nsm_events=nsm_events,
        occupation_series=series,
    )


# ---------------------------------------------------------------------------
# driven ensembles and fluorescence statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DrivenGroup:
    """The emissions of the trajectories ``ids`` of a driven run, in trajectory order, as ``DrivenEnsemble`` has them.

    ``drop_emission`` holds the nsm occupation drop at each emission (empty for qmop/swf).
    """

    ids: range
    emission_times: np.ndarray
    drop_emission: np.ndarray


@dataclass
class DrivenEnsemble:
    """Aggregated driven run: binned occupation plus the raw emission log.

    ``drop_all`` / ``drop_emission`` hold the nsm occupation drops at every
    fluctuation and at emissions only (empty for qmop/swf); the bin fields
    are None for a run without bins.  When the emissions went to a consumer,
    ``emission_times`` is empty and the drop fields are None.
    """

    n_traj: int
    dt: float
    t_max: float
    bin_centers: Optional[np.ndarray]
    occupation_mean: Optional[np.ndarray]
    occupation_se: Optional[np.ndarray]
    emission_times: np.ndarray
    drop_all: Optional[np.ndarray]
    drop_emission: Optional[np.ndarray]


def run_driven_ensemble(
    params: ModelParams,
    drive: DriveParams,
    initial_state: Optional[QubitState] = None,
    bin_steps: Optional[int] = 20,
    on_group: Optional[Callable[[DrivenGroup], None]] = None,
) -> DrivenEnsemble:
    """Run ``params.n_traj`` driven trajectories and aggregate statistics.

    The per-bin occupation is the mean over trajectories of each
    trajectory's average occupation within the bin; the quoted error is the
    standard error over trajectories.  ``bin_steps=None`` skips the bins,
    leaving only the emission times and drops.  Trajectory i uses substream
    (seed, i) and the groups are joined in trajectory order.  The model's
    engine runs serially over ``lockstep.GROUP_SIZE`` ids at a time through
    ``lockstep.run_groups``, as decay runs do.  A group keeps its emission
    rows ``(traj, t, gap)`` (``(traj, t, k)`` under qmop/swf), its segments
    only for bins and the ``(traj, gap)`` of every fluctuation only for a
    joined nsm run's ``drop_all``.  One tail orders the emissions, computes
    ``drop_emission`` and hands a ``DrivenGroup`` to ``on_group``, keeping
    nothing, or returns the emission times and both drop columns.
    """
    plan = _driven_plan(params, drive, initial_state)
    n_steps, occ, nsm = params.n_steps, plan.occ, params.model is Model.NSM
    streamed = on_group is not None

    def group(ids: range, vals: np.ndarray):
        gaps = []  # (traj, gap) of every fluctuation, for a joined nsm run's drop_all
        if nsm:
            first, rounds = _lockstep_driven_nsm(plan, params.seed, ids)
            events, segments = [], [first]
            for (traj, t, gap, _, emitted, _), seg in rounds:
                events.append((traj[emitted], t[emitted], gap[emitted]))
                if not streamed:
                    gaps.append((traj, gap))
                if bin_steps:
                    segments.append(seg)
        else:  # emission rows (traj, t, k)
            events, segments = _driven_step_engine(plan, params.seed, ids)
        if bin_steps:
            segments = lockstep.trajectory_order(segments)
            occupation = partial(lockstep.segment_occupation, occ, segments, n_steps)
            vals[:] = lockstep.segment_bin_means(segments, len(ids), n_steps, bin_steps, occ, segments[2], occupation)
        _, t, gap = lockstep.trajectory_order(events)
        drop_emission = lockstep.occupation_drops(params.gamma, gap) if nsm else np.empty(0)
        if streamed:
            on_group(DrivenGroup(ids, t, drop_emission))
            return ()
        drop_all = lockstep.occupation_drops(params.gamma, lockstep.trajectory_order(gaps)[1]) if nsm else np.empty(0)
        return t, drop_all, drop_emission

    n_bins = n_steps // bin_steps if bin_steps else 0
    vals, *columns = lockstep.run_groups(group, params.n_traj, lockstep.GROUP_SIZE, n_bins)
    centers, mean, _, se = lockstep.bin_statistics(vals, bin_steps, params.dt) if bin_steps else (None,) * 4
    em_times, *drops = columns or (np.empty(0), None, None)
    return DrivenEnsemble(params.n_traj, params.dt, params.t_max, centers, mean, se, em_times, *drops)


@dataclass(frozen=True)
class FluorescenceSeries:
    """Emission rate per atom per unit time, binned, with Poisson errors."""

    bin_centers: np.ndarray
    intensity: np.ndarray
    se: np.ndarray


class EmissionCounts:
    """Emissions counted in ``round(t_max / bin_width)`` bins of ``bin_width`` from 0, an array of times at a time.

    Integer counts added in parts are the counts of the joined times, in any
    order; ``n_emissions`` also counts the times past the last edge.
    """

    def __init__(self, bin_width: float, t_max: float):
        if not bin_width > 0.0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        n_bins = max(1, int(round(t_max / bin_width)))
        self.bin_width = bin_width
        self.edges = np.linspace(0.0, n_bins * bin_width, n_bins + 1)
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.n_emissions = 0

    def add(self, times: np.ndarray) -> None:
        self.counts += np.histogram(times, bins=self.edges)[0]
        self.n_emissions += times.size

    def series(self, n_traj: int) -> FluorescenceSeries:
        """The emission rate per atom of ``n_traj`` trajectories, from the counts so far."""
        if n_traj < 1:
            raise ValueError("empty ensemble")
        scale = n_traj * self.bin_width
        return FluorescenceSeries((self.edges[:-1] + self.edges[1:]) / 2.0, self.counts / scale, np.sqrt(self.counts) / scale)


def fluorescence_from_times(
    emission_times: np.ndarray, n_traj: int, bin_width: float, t_max: float
) -> FluorescenceSeries:
    counts = EmissionCounts(bin_width, t_max)
    counts.add(emission_times)
    return counts.series(n_traj)


def _emission_times_of(record: TrajectoryRecord) -> List[float]:
    return [ev.t for ev in record.events if ev.kind is EventKind.PHOTON_DETECTION]


def fluorescence_intensity(
    ensemble: Sequence[TrajectoryRecord], gamma: float, bin_width: float
) -> FluorescenceSeries:
    """Binned emission rate of a driven ensemble of trajectory records.

    The intensity in a bin is (emissions in bin) / (n_traj * bin_width); in
    the stationary driven regime it approaches gamma times the mean
    occupation.  The bins are whole widths from 0 and cover the last event
    of any record, so every emission is counted.
    """
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    records = list(ensemble)
    if not records:
        raise ValueError("empty ensemble")
    times: List[float] = []
    t_last = 0.0
    for rec in records:
        for ev in rec.events:
            t_last = max(t_last, ev.t)
        times.extend(_emission_times_of(rec))
    if not bin_width > 0.0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    # whole bins up to the last event: one more where the ceiling's product falls an ulp short
    n_bins = max(1, math.ceil(t_last / bin_width))
    if n_bins * bin_width < t_last:
        n_bins += 1
    return fluorescence_from_times(np.asarray(times), len(records), bin_width, n_bins * bin_width)


@dataclass(frozen=True)
class DropHistogram:
    """Histogram of occupation drops at emissions, with the analytic overlay."""

    a_centers: np.ndarray
    counts: np.ndarray
    density_analytic: np.ndarray
    n_samples: int

    @property
    def density_empirical(self) -> np.ndarray:
        width = 1.0 / self.counts.size
        return self.counts / (self.n_samples * width) if self.n_samples else self.counts * 0.0


class DropCounts:
    """Occupation drops counted in ``round(1 / bin_width)`` bins over [0, 1], an array of samples at a time.

    Integer counts added in parts are the counts of the joined samples, in any order.
    """

    def __init__(self, bin_width: float):
        if not 0.0 < bin_width <= 1.0:
            raise ValueError(f"bin_width must lie in (0, 1], got {bin_width}")
        self.edges = np.linspace(0.0, 1.0, max(1, int(round(1.0 / bin_width))) + 1)
        self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)

    def add(self, samples: np.ndarray) -> None:
        self.counts += np.histogram(samples, bins=self.edges)[0]

    def histogram(self, gamma: float, beta: float) -> DropHistogram:
        """The counts so far, with the analytic overlay of ``r = beta / gamma``."""
        if not gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        centers = (self.edges[:-1] + self.edges[1:]) / 2.0
        analytic = np.array([occupation_drop_density(beta / gamma, a) for a in centers])
        return DropHistogram(centers, self.counts.copy(), analytic, int(self.counts.sum()))


def drop_histogram_from_samples(samples: np.ndarray, gamma: float, beta: float, bin_width: float) -> DropHistogram:
    counts = DropCounts(bin_width)
    counts.add(samples)
    return counts.histogram(gamma, beta)


def fluorescence_fluctuation_histogram(
    ensemble: Sequence[TrajectoryRecord],
    gamma: float,
    beta: float,
    bin_width: float = 0.05,
    events: str = "emission",
) -> DropHistogram:
    """Occupation drops collected across a driven nsm ensemble.

    ``events="emission"`` keeps only the drops at photon emissions; note
    that the chance a fluctuation emits grows with its gap, so this
    collection is size-biased toward large drops relative to the analytic
    overlay.  ``events="all"`` collects every fluctuation, the set the
    analytic density describes exactly.

    Raises on an empty ensemble, and on records that carry no fluctuation
    log (wrong model).
    """
    if events not in ("emission", "all"):
        raise ValueError(f"events must be 'emission' or 'all', got {events!r}")
    records = list(ensemble)
    if not records:
        raise ValueError("empty ensemble")
    if all(not rec.nsm_events for rec in records):
        raise ValueError("wrong model: records carry no fluctuation log (need model=nsm)")
    samples: List[float] = []
    for rec in records:
        if events == "all":
            samples.extend(ev.a_before for ev in rec.nsm_events)
        else:
            emitted_at = set(_emission_times_of(rec))
            samples.extend(ev.a_before for ev in rec.nsm_events if ev.t in emitted_at)
    return drop_histogram_from_samples(np.asarray(samples), gamma, beta, bin_width)
