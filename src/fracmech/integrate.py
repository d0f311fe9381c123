"""Adaptive integration of the canonical equations with event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, FSAL evaluation reuse, and a PI-free
step controller (safety 0.9, growth clipped to [0.2, 10]).  The kinetic
term's velocity map |p|^(alpha-1) is continuous but not Lipschitz at
p = 0 for alpha < 2; the error estimate shrinks steps through turning
points on its own, and while |p| is small a cap bounds the relative momentum
change per step.

Events are sign crossings of functions held as data, one row per function
(see _event_rows).  Each crossing is located by bisection in the step's own
theta in [0, 1] on its quartic, to the precision of t, so the work is
bounded however far the span lies from t = 0.

A step runs on plain floats: two unpacked scalars at d = 1, four at d = 2 and
lists of 2d above; at d <= 3 a numpy temporary costs more than its arithmetic.
The error estimate contracts a (7, 2d) stage buffer, allocated once per run and
filled in place, with one BLAS call into a reused output; the dense output is one
contraction per run, at its end, of copies of the accepted steps' buffers.
"""

from __future__ import annotations

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
    _dot,
    _energy,
    _field,
    _planar_field,
    _power_law,
    _scalar_field,
    abs_power,
    require_finite,
    turning_point,
)
from .trajectory import DenseSegment, Trajectory

__all__ = ["IntegratorConfig", "EventRecord", "integrate"]


@dataclass(frozen=True)
class IntegratorConfig:
    """The error tolerances and step budget of one integration run."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        require_finite(**vars(self))
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise DomainError("integrator tolerances must be positive")
        if not (isinstance(self.max_steps, (int, np.integer)) and self.max_steps > 0):
            raise DomainError(f"max_steps must be a positive integer, got {self.max_steps!r}")


@dataclass(frozen=True)
class EventRecord:
    """A located zero crossing: its kind, time, interpolated state, and the
    state component that crossed (None for scalar-valued event functions)."""

    kind: str
    time: float
    state: PhaseState
    component: int | None = None


# Dormand-Prince 5(4) tableau: stage i is the field at y + h sum_j A_ij k_j,
# and the step's 5th-order result is y + h sum_j B_j k_j (B_2 = 0)
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# difference between the 5th- and 4th-order weights; dotted with the stages
# (including the FSAL stage) it yields the local error estimate
_ERR = np.array([
    71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0
])
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


def _rms(v: list[float]) -> float:
    return math.sqrt(_dot(v, v) / len(v))


def _scalar_attempt(field: Callable, y: list[float], k1: Sequence[float], h: float) -> tuple:
    """_list_attempt at d = 1 on two floats, bitwise, with field = model._scalar_field."""
    (q, p), (a1, b1) = y, k1
    a2, b2 = field(q + h * (_A21 * a1), p + h * (_A21 * b1))
    a3, b3 = field(q + h * (_A31 * a1 + _A32 * a2), p + h * (_A31 * b1 + _A32 * b2))
    a4, b4 = field(q + h * (_A41 * a1 + _A42 * a2 + _A43 * a3), p + h * (_A41 * b1 + _A42 * b2 + _A43 * b3))
    a5, b5 = field(q + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4),
                   p + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4))
    a6, b6 = field(q + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5),
                   p + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5))
    y_new = [q + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6),
             p + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5 + _B6 * b6)]
    a7, b7 = f_new = field(*y_new)
    return y_new, f_new, (a1, b1, a2, b2, a3, b3, a4, b4, a5, b5, a6, b6, a7, b7)


def _planar_attempt(field: Callable, y: list[float], k1: Sequence[float], h: float) -> tuple:
    """_list_attempt at d = 2 on four floats, bitwise, with field = model._planar_field."""
    (qx, qy, px, py), (a1, b1, c1, e1) = y, k1
    a2, b2, c2, e2 = field(qx + h * (_A21 * a1), qy + h * (_A21 * b1), px + h * (_A21 * c1), py + h * (_A21 * e1))
    a3, b3, c3, e3 = field(qx + h * (_A31 * a1 + _A32 * a2), qy + h * (_A31 * b1 + _A32 * b2),
                           px + h * (_A31 * c1 + _A32 * c2), py + h * (_A31 * e1 + _A32 * e2))
    a4, b4, c4, e4 = field(qx + h * (_A41 * a1 + _A42 * a2 + _A43 * a3), qy + h * (_A41 * b1 + _A42 * b2 + _A43 * b3),
                           px + h * (_A41 * c1 + _A42 * c2 + _A43 * c3), py + h * (_A41 * e1 + _A42 * e2 + _A43 * e3))
    a5, b5, c5, e5 = field(qx + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4),
                           qy + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4),
                           px + h * (_A51 * c1 + _A52 * c2 + _A53 * c3 + _A54 * c4),
                           py + h * (_A51 * e1 + _A52 * e2 + _A53 * e3 + _A54 * e4))
    a6, b6, c6, e6 = field(qx + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5),
                           qy + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5),
                           px + h * (_A61 * c1 + _A62 * c2 + _A63 * c3 + _A64 * c4 + _A65 * c5),
                           py + h * (_A61 * e1 + _A62 * e2 + _A63 * e3 + _A64 * e4 + _A65 * e5))
    y_new = [qx + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6),
             qy + h * (_B1 * b1 + _B3 * b3 + _B4 * b4 + _B5 * b5 + _B6 * b6),
             px + h * (_B1 * c1 + _B3 * c3 + _B4 * c4 + _B5 * c5 + _B6 * c6),
             py + h * (_B1 * e1 + _B3 * e3 + _B4 * e4 + _B5 * e5 + _B6 * e6)]
    a7, b7, c7, e7 = f_new = field(*y_new)
    return y_new, f_new, (a1, b1, c1, e1, a2, b2, c2, e2, a3, b3, c3, e3, a4, b4, c4, e4,
                          a5, b5, c5, e5, a6, b6, c6, e6, a7, b7, c7, e7)


def _list_attempt(rhs: Callable, y: list[float], k1: Sequence[float], h: float) -> tuple:
    """One embedded attempt on lists of 2d floats, stage sums in stage order: (y_new, f_new, 7 stages flat)."""
    k2 = rhs([x + h * (_A21 * s1) for x, s1 in zip(y, k1)])
    k3 = rhs([x + h * (_A31 * s1 + _A32 * s2) for x, s1, s2 in zip(y, k1, k2)])
    k4 = rhs([x + h * (_A41 * s1 + _A42 * s2 + _A43 * s3) for x, s1, s2, s3 in zip(y, k1, k2, k3)])
    k5 = rhs([x + h * (_A51 * s1 + _A52 * s2 + _A53 * s3 + _A54 * s4)
              for x, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)])
    k6 = rhs([x + h * (_A61 * s1 + _A62 * s2 + _A63 * s3 + _A64 * s4 + _A65 * s5)
              for x, s1, s2, s3, s4, s5 in zip(y, k1, k2, k3, k4, k5)])
    y_new = [x + h * (_B1 * s1 + _B3 * s3 + _B4 * s4 + _B5 * s5 + _B6 * s6)
             for x, s1, s3, s4, s5, s6 in zip(y, k1, k3, k4, k5, k6)]
    f_new = rhs(y_new)
    return y_new, f_new, [*k1, *k2, *k3, *k4, *k5, *k6, *f_new]


def _initial_step(
    rhs: Callable[[list[float]], list[float]], y0: list[float], f0: list[float],
    atol: list[float], rel_tol: float, span: float,
) -> float:
    """Starting step size from the local magnitude and curvature of the RHS."""
    scale = [tol + rel_tol * abs(a) for tol, a in zip(atol, y0)]
    d0 = _rms([a / s for a, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = rhs([a + h0 * b for a, b in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _event_rows(d: int, q_levels: Sequence, radial_direction: int | None, stop_after) -> tuple[list, int]:
    """The event rows of a run and the count of events that ends it, 0 without
    stop_after=(kind, n), which keeps the rows of its kind alone.  One row
    (kind, component, index, level, direction) per event function: turning
    points (p_j = 0), origin crossings (q_j = 0), the level crossings q[c] =
    level, and optionally the zeros of q.p.  A row's value is y[index] - level,
    or q.p where index is None; direction +1 counts rising zeros only, -1
    falling only, 0 both.  Malformed options are DomainErrors."""
    rows = [("turning_point", j, d + j, 0.0, 0) for j in range(d)]
    rows += [("origin_crossing", j, j, 0.0, 0) for j in range(d)]
    for entry in q_levels:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise DomainError(f"level crossing {entry!r} is not a (component, real level) pair")
        comp, level = entry
        require_finite(component=comp, level=level)
        if not (isinstance(comp, (int, np.integer)) and 0 <= comp < d):
            raise DomainError(f"level-crossing component {comp} outside dimension {d}")
        rows.append(("custom", int(comp), int(comp), float(level), 0))
    if radial_direction is not None:
        require_finite(radial_direction=radial_direction)
        if radial_direction not in (-1, 0, 1):
            raise DomainError(f"radial_direction must be -1, 0 or +1, got {radial_direction!r}")
        rows.append(("custom", None, None, 0.0, int(radial_direction)))
    kind, n = stop_after if isinstance(stop_after, (tuple, list)) and len(stop_after) == 2 else (None, 0)
    stoppable = ("custom",) if rows[2 * d:] else ("turning_point", "origin_crossing")
    require_finite(stop_after_count=n)
    if stop_after is not None and not (isinstance(n, (int, np.integer)) and n >= 1 and kind in stoppable):
        raise DomainError(f"stop_after needs kind {' or '.join(stoppable)} and a count >= 1, got {stop_after!r}")
    return [row for row in rows if stop_after is None or row[0] == kind], n


def _value(row: tuple, y: list[float]) -> float:
    _, _, index, level, _ = row
    if index is None:
        d = len(y) // 2
        return _dot(y[:d], y[d:])
    return y[index] - level


def _crossed(rows: list[tuple], g_old: list[float], g_new: list[float]) -> list[int]:
    """Rows whose sign change over a step is a counted zero; a row that
    starts exactly at zero is departing an event, not crossing one."""
    return [
        r
        for r, (a, b, (_, _, _, _, way)) in enumerate(zip(g_old, g_new, rows))
        if (a < 0.0 <= b and way >= 0) or (a > 0.0 >= b and way <= 0)
    ]


_MAX_HALVINGS = 60  # exhausts a double's 53-bit mantissa with room to spare


def _locate(row: tuple, seg: DenseSegment, g_lo: float) -> float:
    """Bisection in theta on the step's quartic for the zero of one event
    row, until the midpoint's time t + mid * width equals an end's: to the
    precision of t, in at most _MAX_HALVINGS halvings.  Returns theta in [0, 1]."""
    lo, hi = 0.0, 1.0
    t, w = seg.t_start, seg.width
    neg = g_lo < 0.0
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if t + mid * w in (t + lo * w, t + hi * w):
            break
        gm = _value(row, seg.at(mid).tolist())
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
    and the chronological list of located events.  ``q_levels`` (component,
    level) pairs and ``radial_direction`` add "custom" rows (see
    _event_rows).  ``stop_after=(kind, n)`` detects only events of that kind and
    ends the run on the n-th, cutting its last step there; custom rows need kind
    "custom", and a bad kind, n < 1 or a malformed option is a DomainError.  With
    ``stop_after`` the span may be open, t1 = inf: the run ends on that event
    within one ``max_steps`` budget.  A non-finite energy or step, the step
    budget and a step-size underflow raise IntegrationError, each reading
    "<what> at t = ..., y = ..." plus the awaited ``stop_after``.  The field and attempt are bound
    once per run (two scalars at d = 1, four at d = 2, lists at d = 3), and the dense output is one
    batched contraction per run.  The error estimate is one numpy contraction whose sum order is
    the host BLAS kernel's, so the steps can differ across CPUs at rounding level: 10
    periods at alpha = beta = 1.5 from (0, 1) take 3014/1262 accepted/rejected steps
    on an OpenBLAS SkylakeX core, 3003/1243 on Haswell and 3007/1256 on Sandybridge.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    require_finite(t0=span[0], t1=span[1] if span[1] != math.inf else 0.0)  # t1 = inf with stop_after
    t0, t1 = float(span[0]), float(span[1])
    if not t0 < t1 or (t1 == math.inf and stop_after is None):
        raise DomainError(f"integration span needs finite t0 < t1 (inf t1 only with stop_after), got {span}")
    awaiting = "" if stop_after is None else f", awaiting stop_after {stop_after!r}"

    def failure(error: type, what: str, t: float, y: list[float]) -> IntegrationError:
        """``error`` reading "<what> at t = ..., y = ..." plus the awaited stop_after, with .t and .y set."""
        return error(f"{what} at t = {t}, y = {np.array(y)}{awaiting}", t=t, y=np.array(y))

    q0, p0 = ic.resolve(params)
    d = q0.size
    y = q0.tolist() + p0.tolist()
    rows, stop_n = _event_rows(d, q_levels, radial_direction, stop_after)
    rhs = _field(params, pot, d)
    attempt, field = ((_scalar_attempt, _scalar_field(params, pot)) if d == 1 else
                      (_planar_attempt, _planar_field(params, pot)) if d == 2 else (_list_attempt, rhs))
    n, rel_tol = 2 * d, cfg.rel_tol

    e0 = float(_energy(params, pot, q0, p0))
    if not math.isfinite(e0):
        raise failure(IntegrationError, f"non-finite energy {e0}", t0, y)
    if e0 == 0.0 and (p0.any() and not _power_law(params.d_alpha, params.alpha, p0)
                      or pot.strength and q0.any() and not _power_law(pot.strength, pot.degree, q0)):
        raise DomainError(f"launch energy is 0 only because a nonzero term underflows: q0 = {q0}, p0 = {p0}")

    # characteristic magnitudes for absolute-tolerance scaling
    try:
        q_scale = turning_point(pot, e0)
    except DomainError:
        q_scale = max(float(np.max(np.abs(q0))), 1.0)
    if abs(e0) > 0.0:
        p_scale = abs_power(abs(e0) / params.d_alpha, 1.0 / params.alpha)
    else:
        p_scale = max(float(np.max(np.abs(p0))), 1.0)
    atol = [cfg.abs_tol * q_scale] * d + [cfg.abs_tol * p_scale] * d
    # For alpha < 2 the velocity map |p|^(alpha-1) has unbounded slope at
    # p = 0 and the embedded error estimate degrades there; keep the
    # relative momentum change per step bounded while |p| is small so
    # steps shrink geometrically into a turning point and out again.
    p_band = 0.1 * p_scale if params.alpha < 2.0 else 0.0

    times, ys = [t0], [y]
    stacks, cut = [], 1.0  # each accepted step's (7, 2d) stages; the last step's cut width / full width
    kbuf, ebuf = np.empty((7, n)), np.empty(n)  # the attempt's stages and error estimate
    kflat = kbuf.reshape(-1)
    widths: list[float] = []
    events: list[EventRecord] = []
    accepted = rejected = 0

    f = rhs(y)
    try:
        h = _initial_step(rhs, y, f, atol, rel_tol, t1 - t0)
    except ZeroDivisionError:  # a zero error scale or a non-finite field; the first step reports it
        h = math.nan
    t = t0
    g_old = [_value(row, y) for row in rows]

    while True:
        if accepted + rejected >= cfg.max_steps:
            raise failure(MaxStepsExceeded, f"exceeded {cfg.max_steps} steps", t, y)
        if h < 10.0 * abs(math.ulp(t)):
            raise failure(StepSizeUnderflow, f"step size underflow ({h:.3e})", t, y)
        p_norm = math.hypot(*y[d:])
        if p_norm < p_band:
            pdot_norm = math.hypot(*f[d:])
            if pdot_norm > 0.0:
                h = min(h, (0.5 * p_norm + 1e-5 * p_scale) / pdot_norm)
        finished = t + h >= t1  # the span's last step; a stop event may end the run sooner
        if finished:
            h = t1 - t

        y_new, f_new, stages = attempt(field, y, f, h)
        t_new = t + h
        kflat[:] = stages
        np.dot(_ERR, kbuf, ebuf)
        sq = 0.0
        try:
            for e, a, b, tol in zip(ebuf.tolist(), y, y_new, atol):
                r = h * e / (tol + rel_tol * max(abs(a), abs(b)))
                sq += r * r
        except ZeroDivisionError:  # a zero error scale
            sq = math.inf
        err_norm = math.sqrt(sq / n)
        if not (math.isfinite(err_norm) and math.isfinite(t_new) and all(map(math.isfinite, y_new))):
            raise failure(IntegrationError, f"non-finite step (h = {h}, error norm = {err_norm}, "
                          f"y -> {np.array(y_new)})", t, y)
        factor = _MAX_FACTOR if err_norm == 0.0 else min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**_ORDER_EXP))
        if err_norm > 1.0:
            rejected += 1
            h *= factor
            continue

        accepted += 1

        # locate the sign crossings of the event functions on this step
        g_new = [_value(row, y_new) for row in rows]
        hit_rows = _crossed(rows, g_old, g_new)
        if hit_rows:
            seg = DenseSegment(t, h, np.array(y), kbuf.T @ _DENSE)
            hits = sorted((_locate(rows[r], seg, g_old[r]), r) for r in hit_rows)
            for theta, r in hits:
                t_ev, y_ev = t + theta * h, seg.at(theta)
                kind, comp = rows[r][:2]
                events.append(EventRecord(kind, t_ev, PhaseState._of_row(t_ev, y_ev), comp))
                if len(events) == stop_n:
                    finished = True
                    if t_ev > t:  # the run ends on the event: cut the step there
                        t_new, y_new = t_ev, y_ev.tolist()
                        cut, h = (t_ev - t) / h, t_ev - t
                    break

        stacks.append(kbuf.copy())  # an array holds them in less memory than their floats
        widths.append(h)
        times.append(t_new)
        ys.append(y_new)
        if finished:
            break
        t, y, f, g_old = t_new, y_new, f_new, g_new
        h *= factor

    # every step's quartic at once; over a cut width w, column k of the last scales by (w / h)^k
    coefs = np.array(stacks).transpose(0, 2, 1) @ _DENSE
    coefs[-1] *= cut ** np.arange(4.0)
    arr = np.asarray(ys)
    energies = _energy(params, pot, arr[:, :d], arr[:, d:])

    traj = Trajectory(
        times=np.asarray(times),
        positions=arr[:, :d],
        momenta=arr[:, d:],
        energies=energies,
        coefs=coefs,
        widths=np.asarray(widths),
        accepted_steps=accepted,
        rejected_steps=rejected,
    )
    return traj, events


def first_event_times(
    params: FractionalParams,
    pot: PowerLawPotential,
    ic: InitialConditions,
    kind: str,
    count: int,
    cfg: IntegratorConfig | None = None,
    **events,
) -> list[float]:
    """Times of the first ``count`` events of ``kind`` from t = 0: one run over
    (0, inf) that detects only that kind and ends on the count-th.  ``events``
    passes ``q_levels`` / ``radial_direction``, for kind "custom", to :func:`integrate`.
    """
    _, found = integrate(params, pot, ic, (0.0, math.inf), cfg, stop_after=(kind, count), **events)
    return [ev.time for ev in found]
