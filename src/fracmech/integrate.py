"""Adaptive integration of the canonical equations with event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, FSAL evaluation reuse, and a PI-free
step controller (safety 0.9, growth clipped to [0.2, 10]).  The kinetic
term's velocity map |p|^(alpha-1) is continuous but not Lipschitz at
p = 0 for alpha < 2; the error estimate shrinks steps through turning
points on its own, and a hard step cap applies while |p| is tiny so no
single step can jump far past a turning point.

Events are sign crossings of functions held as data (a component of the
state minus a level, or the radial flux q.p): momentum components
(turning points), position components (origin crossings), optional
position-level crossings, and the optional q.p whose rising zeros mark
closest approach on orbits.  Each crossing is located by bisection in
the step's own theta in [0, 1] on its dense-output quartic, so the work
is bounded however far the span lies from t = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationError, MaxStepsExceeded, StepSizeUnderflow
from .model import (
    FractionalParams,
    InitialConditions,
    PhaseState,
    PowerLawPotential,
    abs_power,
    energy_rows,
    hamiltonian,
    phase_field,
    require_finite,
    turning_point,
)
from .trajectory import DenseSegment, Trajectory

__all__ = ["IntegratorConfig", "EventRecord", "integrate", "measure_period"]


@dataclass(frozen=True)
class IntegratorConfig:
    """Error-control and event-location knobs for one integration run."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    initial_step: float | None = None
    event_tol: float = 1e-12

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0 and self.event_tol > 0.0):
            raise DomainError("integrator tolerances must be positive")
        if self.max_steps <= 0:
            raise DomainError("max_steps must be positive")
        if self.initial_step is not None and not self.initial_step > 0.0:
            raise DomainError("initial_step must be positive when given")


@dataclass(frozen=True)
class EventRecord:
    """A located zero crossing: its kind, time, interpolated state, and the
    state component that crossed (None for scalar-valued event functions)."""

    kind: str
    time: float
    state: PhaseState
    component: int | None = None


# Dormand-Prince 5(4) tableau
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
# difference between the 5th- and 4th-order weights; dotted with the stages
# (including the FSAL stage) it yields the local error estimate
_ERR = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)
# dense-output matrix: row i gives stage i's contribution to the four
# polynomial coefficients of the quartic interpolant
_DENSE = np.array(
    [
        [1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0],
        [0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0],
        [0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0],
        [0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0],
        [0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = -1.0 / 5.0


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def _initial_step(
    rhs: Callable[[np.ndarray], np.ndarray],
    y0: np.ndarray,
    f0: np.ndarray,
    scale: np.ndarray,
    span: float,
) -> float:
    """Starting step size from the local magnitude and curvature of the RHS."""
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


@dataclass(frozen=True)
class _Events:
    """The event functions of one run as data: row r is y[index[r]] - level[r],
    and with ``radial`` a last row is the radial flux q.p.  Each row has a
    kind label, a component (None for q.p) and a direction: +1 counts
    rising zeros only, -1 falling only, 0 both."""

    index: np.ndarray
    level: np.ndarray
    radial: bool
    kinds: tuple[str, ...]
    components: tuple[int | None, ...]
    directions: tuple[int, ...]

    @classmethod
    def of(cls, d: int, q_levels: Sequence[tuple[int, float]], radial_direction: int | None):
        """Turning points (p_j = 0), origin crossings (q_j = 0), the level
        crossings q[c] = level, and optionally the zeros of q.p."""
        level_comps, levels = [int(c) for c, _ in q_levels], [float(v) for _, v in q_levels]
        for comp in level_comps:
            if not 0 <= comp < d:
                raise DomainError(f"level-crossing component {comp} outside dimension {d}")
        radial = [] if radial_direction is None else [int(radial_direction)]
        return cls(
            index=np.array([*range(d, 2 * d), *range(d), *level_comps], dtype=int),
            level=np.array([0.0] * (2 * d) + levels),
            radial=bool(radial),
            kinds=("turning_point",) * d + ("origin_crossing",) * d
            + ("custom",) * (len(level_comps) + len(radial)),
            components=(*range(d), *range(d), *level_comps, *[None] * len(radial)),
            directions=(0,) * (2 * d + len(level_comps)) + tuple(radial),
        )

    def values(self, y: np.ndarray) -> list[float]:
        g = (y[self.index] - self.level).tolist()
        if self.radial:
            d = y.size // 2
            g.append(float(np.dot(y[:d], y[d:])))
        return g

    def crossed(self, g_old: list[float], g_new: list[float]) -> list[int]:
        """Rows whose sign change over a step is a counted zero; a row that
        starts exactly at zero is departing an event, not crossing one."""
        return [
            r
            for r, (a, b, way) in enumerate(zip(g_old, g_new, self.directions))
            if (a < 0.0 <= b and way >= 0) or (a > 0.0 >= b and way <= 0)
        ]


_MAX_HALVINGS = 60  # exhausts a double's 53-bit mantissa with room to spare


def _locate(events: _Events, row: int, seg: DenseSegment, g_lo: float, event_tol: float) -> float:
    """Bisection in theta on the step's quartic for the zero of one event
    row; stops once the bracket spans at most event_tol in time, or after
    _MAX_HALVINGS halvings.  Returns theta in [0, 1]."""
    lo, hi = 0.0, 1.0
    neg = g_lo < 0.0
    for _ in range(_MAX_HALVINGS):
        if (hi - lo) * seg.width <= event_tol:
            break
        mid = 0.5 * (lo + hi)
        gm = events.values(seg.at(mid))[row]
        if gm == 0.0:
            return mid
        if (gm < 0.0) == neg:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# overflow anywhere in a run is reported by the explicit finiteness checks,
# which name the failing state, not by numpy warnings
@np.errstate(all="ignore")
def integrate(
    params: FractionalParams,
    pot: PowerLawPotential,
    ic: InitialConditions,
    span: tuple[float, float],
    cfg: IntegratorConfig | None = None,
    *,
    q_levels: Sequence[tuple[int, float]] = (),
    radial_direction: int | None = None,
    stop_after: tuple[str, int] | None = None,
) -> tuple[Trajectory, list[EventRecord]]:
    """Integrate the canonical equations over span = (t0, t1), t1 > t0.

    Returns the trajectory (a sample per accepted step with dense output)
    and the chronological list of located events.  ``q_levels`` adds
    crossings of q[component] through a level as kind "custom";
    ``radial_direction`` adds zeros of q.p (+1 rising only, -1 falling
    only, 0 both).  ``stop_after=(kind, n)`` truncates the run at the
    n-th event of that kind.  A step whose size, error norm or new state
    is not finite, or a non-finite energy, raises IntegrationError.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t0, t1 = float(span[0]), float(span[1])
    require_finite(span=(t0, t1))
    if not t1 > t0:
        raise DomainError(f"integration span must have t1 > t0, got {span}")
    q0, p0 = ic.resolve(params)
    d = q0.size
    y = np.concatenate([q0, p0]).astype(float)
    scan = _Events.of(d, q_levels, radial_direction)
    stops = [stop_after is not None and k == stop_after[0] for k in scan.kinds]
    rhs = functools.partial(phase_field, params, pot)

    e0 = hamiltonian(params, pot, PhaseState(t0, q0, p0))
    if not math.isfinite(e0):
        raise IntegrationError(f"non-finite energy {e0} at t = {t0}, y = {y}", t=t0, y=y)

    # characteristic magnitudes for absolute-tolerance scaling
    try:
        q_scale = turning_point(pot, e0)
    except DomainError:
        q_scale = max(float(np.max(np.abs(q0))), 1.0)
    if abs(e0) > 0.0:
        p_scale = abs_power(abs(e0) / params.d_alpha, 1.0 / params.alpha)
    else:
        p_scale = max(float(np.max(np.abs(p0))), 1.0)
    atol = np.concatenate(
        [np.full(d, cfg.abs_tol * q_scale), np.full(d, cfg.abs_tol * p_scale)]
    )
    p_small = 1e-6 * p_scale
    cap_small_p = (t1 - t0) / 1000.0
    # For alpha < 2 the velocity map |p|^(alpha-1) has unbounded slope at
    # p = 0 and the embedded error estimate degrades there; keep the
    # relative momentum change per step bounded while |p| is small so
    # steps shrink geometrically into a turning point and out again.
    p_band = 0.1 * p_scale if params.alpha < 2.0 else 0.0

    times = [t0]
    ys = [y.copy()]
    coefs: list[np.ndarray] = []
    widths: list[float] = []
    events: list[EventRecord] = []
    stop_count = 0
    accepted = 0
    rejected = 0

    f = rhs(y)
    scale0 = atol + cfg.rel_tol * np.abs(y)
    h = cfg.initial_step if cfg.initial_step is not None else _initial_step(
        rhs, y, f, scale0, t1 - t0
    )
    t = t0
    g_old = scan.values(y)
    K = np.empty((7, 2 * d))
    finished = False

    while not finished:
        if accepted + rejected >= cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded {cfg.max_steps} steps at t = {t}", t=t, y=y.copy()
            )
        h_min = 10.0 * abs(math.ulp(t))
        if h < h_min:
            raise StepSizeUnderflow(
                f"step size underflow ({h:.3e}) at t = {t}", t=t, y=y.copy()
            )
        p_norm = math.sqrt(float(np.dot(y[d:], y[d:])))
        if p_norm < p_small:
            h = min(h, cap_small_p)
        if p_norm < p_band:
            pdot_norm = math.sqrt(float(np.dot(f[d:], f[d:])))
            if pdot_norm > 0.0:
                h = min(h, (0.5 * p_norm + 1e-5 * p_scale) / pdot_norm)
        if t + h >= t1:
            h = t1 - t
            finished = True

        # one embedded attempt
        K[0] = f
        for i in range(1, 6):
            ysum = y + h * sum(a * K[j] for j, a in enumerate(_A[i]) if a != 0.0)
            K[i] = rhs(ysum)
        y_new = y + h * sum(a * K[j] for j, a in enumerate(_A[6]) if a != 0.0)
        t_new = t + h
        f_new = rhs(y_new)
        K[6] = f_new
        err_vec = h * (_ERR @ K)
        scale = atol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err_vec / scale)
        if not (math.isfinite(err_norm) and math.isfinite(h) and np.isfinite(y_new).all()):
            raise IntegrationError(
                f"non-finite step at t = {t}: h = {h}, error norm = {err_norm}, "
                f"y = {y} -> {y_new}", t=t, y=y.copy()
            )

        if err_norm > 1.0:
            rejected += 1
            finished = False
            h *= max(_MIN_FACTOR, _SAFETY * err_norm**_ORDER_EXP)
            continue

        accepted += 1
        coef = K.T @ _DENSE

        # locate the sign crossings of the event functions on this step
        g_new = scan.values(y_new)
        hit_rows = scan.crossed(g_old, g_new)
        if hit_rows:
            seg = DenseSegment(t, h, y, coef)
            hits = sorted(
                (_locate(scan, r, seg, g_old[r], cfg.event_tol), r) for r in hit_rows
            )
            for theta, r in hits:
                t_ev, y_ev = t + theta * h, seg.at(theta)
                state = PhaseState(t_ev, y_ev[:d], y_ev[d:])
                events.append(EventRecord(scan.kinds[r], t_ev, state, scan.components[r]))
                if stops[r]:
                    stop_count += 1
                    if stop_count >= stop_after[1]:
                        if t_ev > t:  # the run ends on the event
                            t_new, y_new, finished = t_ev, y_ev, True
                        break

        coefs.append(coef)
        widths.append(h)
        times.append(t_new)
        ys.append(y_new)

        t, y, f, g_old = t_new, y_new, f_new, g_new
        if not finished:
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm**_ORDER_EXP
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    arr = np.asarray(ys)
    energies = energy_rows(params, pot, arr[:, :d], arr[:, d:])

    traj = Trajectory(
        times=np.asarray(times),
        positions=arr[:, :d],
        momenta=arr[:, d:],
        energies=energies,
        coefs=np.asarray(coefs),
        widths=np.asarray(widths),
        accepted_steps=accepted,
        rejected_steps=rejected,
    )
    return traj, events


def measure_period(
    params: FractionalParams,
    pot: PowerLawPotential,
    energy: float,
    cfg: IntegratorConfig | None = None,
) -> float:
    """Oscillation period measured from the integrated motion.

    Launches from the turning point (q = q_turn, p = 0) and integrates
    until four momentum zero crossings have been located; successive
    crossings sit half a period apart, so the gap between the second and
    the fourth is one full cycle, with both endpoints event-located so
    start-up effects cancel.
    """
    from .oscillator import OscillatorSpec  # oscillator imports this module

    spec = OscillatorSpec(params, pot, energy)  # validates the oscillator
    ic = InitialConditions(q0=np.array([spec.q_turn]), p0=np.array([0.0]))
    # the Beta factor of the quarter period is bounded by pi on the exponent range
    horizon = 8.5 * math.pi * spec.time_scale
    turning = first_event_times(params, pot, ic, "turning_point", 4, horizon, cfg, runs=3)
    return turning[3] - turning[1]


def first_event_times(
    params: FractionalParams,
    pot: PowerLawPotential,
    ic: InitialConditions,
    kind: str,
    count: int,
    horizon: float,
    cfg: IntegratorConfig | None = None,
    *,
    runs: int,
    **events,
) -> list[float]:
    """Times of the first ``count`` events of ``kind`` from t = 0.

    Each run stops at the count-th such event; the horizon doubles after a
    run that ends short, for at most ``runs`` runs.  ``events`` passes
    ``q_levels`` / ``radial_direction`` on to :func:`integrate`.
    """
    for _ in range(runs):
        _, found = integrate(
            params, pot, ic, (0.0, horizon), cfg, stop_after=(kind, count), **events
        )
        times = [ev.time for ev in found if ev.kind == kind]
        if len(times) >= count:
            return times
        horizon *= 2.0
    raise MaxStepsExceeded(
        f"fewer than {count} {kind} events found within horizon {horizon}"
    )
