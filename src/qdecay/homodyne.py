"""Homodyne signal synthesis, detection back-action and noise diagnostics.

The measured quantity is the balanced difference current: a local oscillator
of magnitude ``alpha`` amplifies the qubit dipole quadrature.  Each photon
absorption in the detectors kicks both the current and the qubit state; the
dense kick sequence is modelled either as a Wiener increment (``white``) or
as a finite-rate point process of discrete kicks (``nsm_point_process``).
The same increment drives the recorded signal and the state back-action.

Between kicks the qubit follows the deterministic no-jump propagation lifted
to density matrices, which for pure states reduces to the two-level no-jump
map of the decay engines.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ModelParams, QubitState, RngStream, as_generator, rekeyed_generators

_SQRT2 = math.sqrt(2.0)
BLOCK_SIZE = 512  # trajectories per lock-step block of iter_homodyne_records


class NoiseModel(str, Enum):
    WHITE = "white"
    NSM_POINT_PROCESS = "nsm_point_process"


@dataclass(frozen=True)
class FieldPair:
    """Output fields of a balanced splitter; energy equals the input energy."""

    phi1: complex
    phi2: complex


def beamsplitter_mix(alpha: complex, psi: complex) -> FieldPair:
    """Balanced mixing: phi1 = (alpha+psi)/sqrt(2), phi2 = (alpha-psi)/sqrt(2)."""
    alpha = complex(alpha)
    psi = complex(psi)
    return FieldPair((alpha + psi) / _SQRT2, (alpha - psi) / _SQRT2)


def homodyne_current(state: QubitState, alpha_mag: float, theta: float) -> float:
    """Amplified dipole quadrature |alpha| * 2 Re(e^{i theta} c_ground* c_excited).

    At theta = 0 this is |alpha| times the bare two-level dipole product; the
    overall proportionality constant of the difference current is folded to 1.
    """
    z = state.c_ground.conjugate() * state.c_excited
    return alpha_mag * 2.0 * (complex(math.cos(theta), math.sin(theta)) * z).real


def _amps3(state) -> np.ndarray:
    a = np.asarray(state, dtype=complex)
    if a.shape != (3,):
        raise ValueError("detection state must be three amplitudes (C_e, C_g, C_photon)")
    if not np.isfinite(a.view(float)).all():
        raise ValueError("detection state must be finite")
    return a


def apply_detection_exact(state, alpha_mag: float) -> np.ndarray:
    """Exact single-detection map: add r = C_g/alpha to the ground amplitude,
    then renormalize.  Its first-order expansion in r is the perturbative
    detection map, so the two agree up to O(r^2)."""
    a = _amps3(state)
    if not alpha_mag > 0.0:
        raise ValueError(f"non-positive alpha: need alpha_mag > 0, got {alpha_mag}")
    r = a[1] / alpha_mag
    out = a.copy()
    out[1] = a[1] + r
    return out / np.linalg.norm(out)


def apply_detection_first_order(state, alpha_mag: float) -> np.ndarray:
    """First-order single-detection map, no final renormalization.

    A fraction of order r = C_g/alpha moves onto the ground amplitude while
    the other two components shrink by r C_g* (complex-consistent form; for
    real C_g the subtraction factor is the familiar r C_g).  The output norm
    is 1 + O(r^2) by construction.
    """
    a = _amps3(state)
    if not alpha_mag > 0.0:
        raise ValueError(f"non-positive alpha: need alpha_mag > 0, got {alpha_mag}")
    r = a[1] / alpha_mag
    if abs(r) > 0.1:
        raise ValueError(f"r too large: |C_g/alpha| = {abs(r):g} exceeds 0.1")
    shrink = r * a[1].conjugate()
    out = np.empty(3, dtype=complex)
    out[0] = a[0] - shrink * a[0]
    out[1] = a[1] + r * (1.0 - abs(a[1]) ** 2)
    out[2] = a[2] - shrink * a[2]
    return out


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 Hermitian unit-trace state of the monitored qubit."""

    rho_ee: float
    rho_gg: float
    rho_eg: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho_ee", float(self.rho_ee))
        object.__setattr__(self, "rho_gg", float(self.rho_gg))
        object.__setattr__(self, "rho_eg", complex(self.rho_eg))
        if not (
            math.isfinite(self.rho_ee)
            and math.isfinite(self.rho_gg)
            and math.isfinite(self.rho_eg.real)
            and math.isfinite(self.rho_eg.imag)
        ):
            raise ValueError("invalid density: entries must be finite")
        if abs(self.rho_ee + self.rho_gg - 1.0) > 1e-9:
            raise ValueError(f"invalid density: trace {self.rho_ee + self.rho_gg} != 1")
        if self.rho_ee < -1e-12 or self.rho_gg < -1e-12:
            raise ValueError("invalid density: negative population")
        if abs(self.rho_eg) ** 2 > self.rho_ee * self.rho_gg + 1e-9:
            raise ValueError("invalid density: coherence exceeds the positivity bound")

    @classmethod
    def excited(cls) -> "DensityMatrix2":
        return cls(1.0, 0.0, 0.0j)

    @classmethod
    def ground(cls) -> "DensityMatrix2":
        return cls(0.0, 1.0, 0.0j)

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix2":
        return cls(0.5, 0.5, 0.0j)

    @classmethod
    def from_state(cls, state: QubitState) -> "DensityMatrix2":
        if state.w_photon != 0.0:
            raise ValueError("invalid density: homodyne channel starts two-level")
        ee = abs(state.c_excited) ** 2
        gg = abs(state.c_ground) ** 2
        total = ee + gg
        return cls(ee / total, gg / total, state.c_excited * state.c_ground.conjugate() / total)

    def as_array(self) -> np.ndarray:
        return np.array(
            [[self.rho_ee, self.rho_eg], [self.rho_eg.conjugate(), self.rho_gg]], dtype=complex
        )

    def sigma_x(self) -> float:
        return 2.0 * self.rho_eg.real


def back_action_increment(rho: DensityMatrix2, dW: float) -> np.ndarray:
    """Traceless state perturbation dW (a rho + rho a^dag - Tr(...) rho)."""
    ee, gg, eg = rho.rho_ee, rho.rho_gg, rho.rho_eg
    tr = 2.0 * eg.real
    d_ee = dW * (-tr * ee)
    d_gg = dW * (2.0 * eg.real - tr * gg)
    d_eg = dW * (ee - tr * eg)
    return np.array([[d_ee, d_eg], [d_eg.conjugate(), d_gg]], dtype=complex)


def _kick(ee, gg, re, im, dW):
    """One detection kick: the traceless first-order increment, then the positivity clip.

    Takes the state's entries ``rho_ee``, ``rho_gg`` and ``rho_eg``'s real and
    imaginary parts, as floats or as arrays over trajectories, and returns them
    kicked.  The increment is taken from the pre-kick state.  Where it pushed
    the smaller eigenvalue ``lo`` below zero, the clip subtracts ``lo`` from the
    diagonal and divides the state by ``2 * disc``, its eigenvalue spread, so
    that eigenvalue lands on zero and the trace comes out one.
    """
    tr = 2.0 * re
    ee, gg, re, im = (
        ee - dW * tr * ee,
        gg + dW * (2.0 * re - tr * gg),
        re + dW * (ee - tr * re),
        im - dW * tr * im,
    )

    # positivity clip where the kick overshot the physical set; np.square is what
    # an array's ** 2 runs, while a float's ** 2 calls pow, which can round differently
    mean = 0.5 * (ee + gg)
    disc = np.sqrt(np.square(0.5 * (ee - gg)) + re * re + im * im)
    lo = mean - disc
    bad = lo < 0.0
    if np.any(bad):
        span = np.where(bad & (disc > 0.0), 2.0 * disc, 1.0)
        ee = np.where(bad, (ee - lo) / span, ee)
        gg = np.where(bad, (gg - lo) / span, gg)
        re = np.where(bad, re / span, re)
        im = np.where(bad, im / span, im)
    return ee, gg, re, im


def back_action_step(rho: DensityMatrix2, dW: float) -> DensityMatrix2:
    """Apply one detection kick to the qubit state: the homodyne engine's own kick.

    The increment is traceless, so the state keeps its trace to rounding; if
    the kick pushes the state outside the physical set, its negative
    eigenvalue is clipped at zero.
    """
    if not math.isfinite(dW):
        raise ValueError(f"dW must be finite, got {dW!r}")
    if abs(dW) > 0.1:
        raise ValueError(f"step too large: |dW| = {abs(dW):g} exceeds 0.1")
    ee, gg, re, im = _kick(rho.rho_ee, rho.rho_gg, rho.rho_eg.real, rho.rho_eg.imag, dW)
    return DensityMatrix2(ee, gg, complex(re, im))


# ---------------------------------------------------------------------------
# noise samplers
# ---------------------------------------------------------------------------


def default_kick(beta: float) -> float:
    """Kick size 1/sqrt(beta): matches the white model's lag-0 autocorrelation."""
    if not beta > 0.0:
        raise ValueError(f"non-positive rate: beta must be > 0, got {beta}")
    return 1.0 / math.sqrt(beta)


def white_noise_increments(stream, n: int, dt: float) -> np.ndarray:
    """n Wiener increments, Normal(0, dt)."""
    gen = as_generator(stream)
    return gen.standard_normal(n) * math.sqrt(dt)


def point_process_increments(stream, n: int, dt: float, beta: float, kick: float):
    """n per-step sums of +-kick pulses arriving at Poisson rate beta.

    Returns (increments, kick_counts).  Zero-mean by symmetry; the variance
    per step is kick^2 * beta * dt.
    """
    if beta < 0.0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    counts, net = _pulses(as_generator(stream), n, dt, beta)
    return kick * net, counts


def _pulses(gen, n: int, dt: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-step pulse counts (Poisson, mean beta*dt) and net kicks ``2*heads - counts``, both int64."""
    counts = gen.poisson(beta * dt, n)
    heads = gen.binomial(counts, 0.5)
    return counts, 2 * heads - counts


# ---------------------------------------------------------------------------
# trajectory runner (lock-step over a block of trajectories)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomodyneRecord:
    """Sampled difference current and dipole of one monitored trajectory.

    ``kick_counts`` (point process only) holds the pulses per step, in the
    narrowest signed integer dtype that holds the largest count of the
    record's engine block.  ``block`` is that block: the record's arrays are
    rows of the block's.
    """

    traj_id: int
    times: np.ndarray
    current: np.ndarray
    sigma_x: np.ndarray
    noise_model: NoiseModel
    kick_counts: Optional[np.ndarray] = None
    block: Optional["HomodyneBlock"] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class HomodyneBlock:
    """The trajectories ``traj_ids`` of one lock-step engine block.

    Row ``j`` of ``current``, ``sigma_x`` and ``kick_counts`` belongs to
    trajectory ``traj_ids[j]``; every trajectory shares ``times``.
    ``kick_counts`` has the narrowest signed integer dtype that holds the
    block's largest count (int8 up to 127 pulses in a step), so a sparse
    point process keeps one byte per step.
    """

    traj_ids: range
    times: np.ndarray
    current: np.ndarray
    sigma_x: np.ndarray
    noise_model: NoiseModel
    kick_counts: Optional[np.ndarray] = None

    def records(self) -> Iterator[HomodyneRecord]:
        """One record per trajectory, in id order; their arrays are views of the block's rows."""
        for j, i in enumerate(self.traj_ids):
            counts = None if self.kick_counts is None else self.kick_counts[j]
            yield HomodyneRecord(
                i, self.times, self.current[j], self.sigma_x[j], self.noise_model, counts, self
            )


def _initial_rho(initial_state: Optional[QubitState]) -> DensityMatrix2:
    if initial_state is None:
        return DensityMatrix2.from_state(
            QubitState.superposition(1.0 / _SQRT2, 1.0 / _SQRT2)
        )
    return DensityMatrix2.from_state(initial_state)


def _lockstep_run(params, noise_model, theta, kick, rho0, m, gens):
    """Advance a block of ``m`` trajectories in lock step, vectorized across them.

    ``gens`` yields the ``m`` trajectories' generators in order; each is read
    to the end of its noise before the next is requested.  Every operation is
    elementwise over the block, so results per trajectory are identical
    however trajectories are grouped into blocks.

    The noise is held step-major, row ``k`` for step ``k``, and the increment
    is ``scale * steps[k]``: the Wiener increments with scale 1, or the net
    pulse counts with scale ``kick``, in the narrowest signed integer dtype
    that holds the block's largest count (``kick_counts`` too).  Either
    product is the float the sampler returns, bit for bit.
    """
    n_steps = params.n_steps
    dt = params.dt
    counts = None
    if noise_model is NoiseModel.WHITE:
        steps, scale = np.empty((n_steps, m)), 1.0
        for j, gen in enumerate(gens):
            steps[:, j] = white_noise_increments(gen, n_steps, dt)
    else:
        steps, scale = np.empty((n_steps, m), dtype=np.int8), kick
        counts = np.empty((m, n_steps), dtype=np.int8)
        for j, gen in enumerate(gens):
            c, net = _pulses(gen, n_steps, dt, params.beta)
            wide = np.promote_types(counts.dtype, np.min_scalar_type(-1 - int(c.max(initial=0))))
            if wide != counts.dtype:
                steps, counts = steps.astype(wide), counts.astype(wide)
            steps[:, j], counts[j] = net, c

    ee = np.full(m, rho0.rho_ee)
    gg = np.full(m, rho0.rho_gg)
    re = np.full(m, rho0.rho_eg.real)
    im = np.full(m, rho0.rho_eg.imag)

    cur = np.empty((m, n_steps))
    sig = np.empty((m, n_steps))
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    x = math.exp(-0.5 * params.gamma * dt)
    x2 = x * x
    phi = (params.omega0 - params.omega1) * dt
    cos_p, sin_p = math.cos(phi), math.sin(phi)

    for k in range(n_steps):
        dW = scale * steps[k]
        sig[:, k] = 2.0 * re
        cur[:, k] = 2.0 * (cos_t * re - sin_t * im) + dW / dt
        ee, gg, re, im = _kick(ee, gg, re, im, dW)

        # deterministic no-jump drift, renormalized
        t2 = x2 * ee + gg
        ee = x2 * ee / t2
        gg = gg / t2
        re, im = x * (re * cos_p - im * sin_p) / t2, x * (re * sin_p + im * cos_p) / t2

    return cur, sig, counts


def resolve_kick(params: ModelParams, noise_model: NoiseModel, kick: Optional[float]) -> float:
    """The kick size a run uses: 0 for white noise, else ``kick``, or ``default_kick(beta)`` when None."""
    if noise_model is NoiseModel.WHITE:
        return 0.0
    if kick is not None:
        if kick < 0.0:
            raise ValueError(f"kick must be >= 0, got {kick}")
        return float(kick)
    return default_kick(params.beta)


def _warn_long_window(params: ModelParams) -> None:
    if params.gamma * params.t_max > 0.1:
        warnings.warn(
            f"homodyne window gamma*t_max = {params.gamma * params.t_max:g} is not "
            "small; the detection model assumes the window is well inside the lifetime",
            stacklevel=3,
        )


def run_homodyne_trajectory(
    params: ModelParams,
    noise_model: Union[NoiseModel, str],
    stream,
    theta: float = 0.0,
    kick: Optional[float] = None,
    initial_state: Optional[QubitState] = None,
) -> HomodyneRecord:
    """Sample one monitored trajectory.

    Per step of size dt the differential signal gains the dipole drift plus
    the noise increment (``current = sigma_x_quadrature + dW/dt``); the same
    increment then kicks the qubit state, followed by the deterministic
    no-jump drift.  The white model draws dW ~ Normal(0, dt); the point
    process model sums +-kick pulses at rate beta, with kick defaulting to
    1/sqrt(beta) so both models share the same lag-0 autocorrelation.
    """
    noise_model = NoiseModel(noise_model)
    _warn_long_window(params)
    kick_val = resolve_kick(params, noise_model, kick)
    gen = as_generator(stream)
    rho0 = _initial_rho(initial_state)
    cur, sig, counts = _lockstep_run(params, noise_model, theta, kick_val, rho0, 1, [gen])
    times = np.arange(params.n_steps) * params.dt
    traj_id = stream.stream_id if isinstance(stream, RngStream) else 0
    block = HomodyneBlock(range(traj_id, traj_id + 1), times, cur, sig, noise_model, counts)
    return next(block.records())


def iter_homodyne_records(
    params: ModelParams,
    noise_model: Union[NoiseModel, str],
    theta: float = 0.0,
    kick: Optional[float] = None,
    initial_state: Optional[QubitState] = None,
) -> Iterator[HomodyneRecord]:
    """Yield ``params.n_traj`` records in trajectory order, blockwise lock-step.

    Trajectory i uses substream (seed, i), so the stream of records is
    byte-identical for any ``BLOCK_SIZE``.  Each record's ``block`` is its
    lock-step block of ``BLOCK_SIZE`` trajectories; every block shares one
    ``times`` array.  A record keeps its whole block alive, so the stream
    holds one block at a time only if the caller lets go of the previous
    record before it asks for the next: a ``for`` loop target or a ``zip``
    tuple still holds the last item while the next one is computed.
    """
    noise_model = NoiseModel(noise_model)
    _warn_long_window(params)
    kick_val = resolve_kick(params, noise_model, kick)
    rho0 = _initial_rho(initial_state)
    times = np.arange(params.n_steps) * params.dt

    def run_block(ids: range) -> HomodyneBlock:
        gens = (gen for _, gen in rekeyed_generators(params.seed, ids))
        cur, sig, counts = _lockstep_run(params, noise_model, theta, kick_val, rho0, len(ids), gens)
        return HomodyneBlock(ids, times, cur, sig, noise_model, counts)

    blocks = [range(lo, min(lo + BLOCK_SIZE, params.n_traj)) for lo in range(0, params.n_traj, BLOCK_SIZE)]
    # map hands each block straight to its records generator, which drops it when exhausted
    for records in map(HomodyneBlock.records, map(run_block, blocks)):
        yield from records


def run_homodyne_ensemble(params, noise_model, **kwargs) -> List[HomodyneRecord]:
    """Materialize the full record list (convenience for modest ensembles)."""
    return list(iter_homodyne_records(params, noise_model, **kwargs))


# ---------------------------------------------------------------------------
# autocorrelation of the recorded signal
# ---------------------------------------------------------------------------


def autocorrelation(series: Sequence[float], max_lag: int) -> np.ndarray:
    """Lagged products of the mean-subtracted series, divisor n - k per lag."""
    x = np.asarray(series, dtype=float)
    n = x.size
    if n <= max_lag:
        raise ValueError(f"series too short: length {n} must exceed max_lag {max_lag}")
    if max_lag < 0:
        raise ValueError("max_lag must be >= 0")
    d = x - x.mean()
    out = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        out[k] = float(np.dot(d[: n - k], d[k:])) / (n - k)
    return out


def signal_autocorrelation(record, max_lag: int) -> np.ndarray:
    """Autocorrelation of one record's fluctuating current (time-mean removed)."""
    series = record.current if isinstance(record, HomodyneRecord) else record
    return autocorrelation(series, max_lag)


class EnsembleAutocorrelation:
    """Single-pass ensemble estimator of the signal autocorrelation.

    Subtracts the per-time ensemble mean (removing the deterministic drift)
    and averages lagged products over trajectories and time origins.
    ``add`` takes one series or a block of them, one per row.  Each row's
    series and lag products are added into the running sums on their own,
    in row order, so the result has the same bytes however the trajectories
    are split into blocks, as long as they come in the same order.
    """

    def __init__(self, n_steps: int, max_lag: int) -> None:
        if n_steps <= max_lag:
            raise ValueError(f"series too short: {n_steps} steps for max_lag {max_lag}")
        self.n_steps = n_steps
        self.max_lag = max_lag
        self._n_traj = 0
        self._time_sum = np.zeros(n_steps)
        self._lag_sum = np.zeros(max_lag + 1)

    def add(self, series) -> None:
        """Add one series (1-D) or a block of series, one per row (2-D)."""
        x = np.atleast_2d(np.asarray(series, dtype=float))
        if x.shape[1] != self.n_steps:
            raise ValueError(f"expected series of length {self.n_steps}, got {x.shape[1]}")
        self._n_traj += x.shape[0]
        n = self.n_steps
        # (lag, row) products; x.sum(axis=0) or a sum over rows would regroup the additions
        products = np.empty((self.max_lag + 1, x.shape[0]))
        for k in range(self.max_lag + 1):
            products[k] = np.einsum("ij,ij->i", x[:, : n - k], x[:, k:])
        for row, lag_products in zip(x, products.T):
            self._time_sum += row
            self._lag_sum += lag_products

    def result(self) -> np.ndarray:
        if self._n_traj == 0:
            raise ValueError("no trajectories added")
        m = self._n_traj
        n = self.n_steps
        zeta = np.empty(self.max_lag + 1)
        for k in range(self.max_lag + 1):
            mean_part = float(np.dot(self._time_sum[: n - k], self._time_sum[k:])) / m
            zeta[k] = (self._lag_sum[k] - mean_part) / (m * (n - k))
        return zeta


def ensemble_autocorrelation(records, n_steps: int, max_lag: int) -> np.ndarray:
    """Autocorrelation over an ensemble of records (or raw current arrays)."""
    acc = EnsembleAutocorrelation(n_steps, max_lag)
    for rec in records:
        acc.add(rec.current if isinstance(rec, HomodyneRecord) else rec)
    return acc.result()
