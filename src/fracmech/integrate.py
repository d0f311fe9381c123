"""Adaptive integration of the canonical equations with event detection.

The stepper is an embedded Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, FSAL evaluation reuse, and a PI-free
step controller (safety 0.9, growth clipped to [0.2, 10]).  The kinetic
term's velocity map |p|^(alpha-1) is continuous but not Lipschitz at
p = 0 for alpha < 2; the error estimate shrinks steps through turning
points on its own, and while |p| is small a cap bounds the relative momentum
change per step.

Events are sign crossings of functions held as data, one row per function (see
_event_rows).  A crossing is located by bisection in the step's own theta in [0, 1]
on its quartic, to the precision of t, however far the span lies from t = 0.

The tableau is stated once, in _TABLEAU: _list_attempt, the reference, reads it
row by row, and _kernel compiles the same rows into one straight-line function
on 2d floats per dimension, since at d <= 3 a numpy temporary costs more than its
arithmetic.  The kernel writes its stages into a (7, 2d) buffer, allocated once
per run, and contracts it with one BLAS call for the error estimate; the dense
output is one contraction per run, at its end, of the accepted steps' buffers.
The kernel also decides the attempt: the step factor, whether the new state and
error norm are finite and, when accepted, each event row's new value and the rows
that crossed, so integrate's loop makes one call and one branch per attempt.  Its
generator alone states a row's value and crossing rule, and writes from them the
evaluator that bisection reads.  It is compiled per dimension and layout of event
rows, their (index, direction) pairs; a run binds the rows' levels.
"""

from __future__ import annotations

import functools
import math
import struct
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
    _power_law,
    _rate_constants,
    abs_power,
    guard_layer,
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


# Dormand-Prince 5(4) tableau (J. Comput. Appl. Math. 6 (1980) 19) as (j, coefficient of k_j) rows: stage
# i = 2..6 is the field at y + h sum_j A_ij k_j, and the last row is the 5th-order result's B_j (B_2 = 0)
_TABLEAU = (
    ((1, 1.0 / 5.0),),
    ((1, 3.0 / 40.0), (2, 9.0 / 40.0)),
    ((1, 44.0 / 45.0), (2, -56.0 / 15.0), (3, 32.0 / 9.0)),
    ((1, 19372.0 / 6561.0), (2, -25360.0 / 2187.0), (3, 64448.0 / 6561.0), (4, -212.0 / 729.0)),
    ((1, 9017.0 / 3168.0), (2, -355.0 / 33.0), (3, 46732.0 / 5247.0), (4, 49.0 / 176.0), (5, -5103.0 / 18656.0)),
    ((1, 35.0 / 384.0), (3, 500.0 / 1113.0), (4, 125.0 / 192.0), (5, -2187.0 / 6784.0), (6, 11.0 / 84.0)),
)
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


def _list_attempt(params: FractionalParams, pot: PowerLawPotential, y: list[float], k1: Sequence[float],
                  h: float) -> tuple:
    """One embedded attempt on lists of 2d floats, _TABLEAU row by row: (y_new, f_new, 7 stages flat).
    Each stage sum starts from its row's first product; 0 + it would turn a -0.0 sum into +0.0."""
    stages = [k1]
    for (j, c), *rest in _TABLEAU:  # the last row's state is y_new, and its field f_new
        acc = [c * v for v in stages[j - 1]]
        for j, c in rest:
            acc = [a + c * v for a, v in zip(acc, stages[j - 1])]
        x = [yi + h * a for yi, a in zip(y, acc)]
        stages.append(_field(params, pot, x))
    return x, stages[-1], [v for k in stages for v in k]


@functools.cache
def _kernel(d: int, layout: tuple) -> Callable:
    """The whole attempt in dimension d as one straight-line function on floats, compiled once per
    process and event-row layout from the rows of _TABLEAU that _list_attempt reads: bind(params, pot,
    atol, rel_tol, kbuf, ebuf, levels) gives a run's attempt(y, k1, h, g_old) -> (y_new, f_new, err_norm,
    factor, finite, g_new, crossed) and values(y), each row's value at y in g_new's expressions: y[index]
    - level for a layout row (index, direction), q.p where index is None.  Each stage sum is its row's,
    in order from the first product, with the coefficients as repr literals, which round-trip exactly.
    Each stage's field writes model._field's formula out, from the same _rate_constants (norms fabs at
    d = 1, hypot above), with its zero rates; the parity tests hold the kernel equal to _list_attempt,
    bit for bit.  The seven stages are packed into kbuf, the error estimate is _ERR.dot(kbuf, ebuf),
    one BLAS call, and err_norm is its RMS against tol + rel_tol max(|y|, |y_new|), inf where that
    scale is 0.  A power beyond the float range, or a force at q = 0 for degree <= 1, re-runs
    _list_attempt, which raises the DomainError that names it at the same stage.

    The attempt decides itself too: factor, min(10, max(0.2, 0.9 err_norm^(-1/5))), 10 at err_norm = 0,
    in conditionals of the same bits; finite, whether y_new and err_norm are; and on an accepted attempt
    (finite, err_norm <= 1) g_new, values(y_new), and crossed, the rows that crossed from g_old in their
    direction (+1 g_old < 0 <= g_new, -1 g_old > 0 >= g_new, 0 either), or (); else None and ()."""
    size = 2 * d

    def names(stem: str, count: int = size) -> list[str]:
        return [f"{stem}{j}" for j in range(count)]

    def norm(x: list[str]) -> str:
        return f"fabs({x[0]})" if d == 1 else f"hypot({', '.join(x)})"

    body = [f"{', '.join(names('y'))} = y", f"{', '.join(names('k1_'))} = k1", "try:"]
    for i, row in enumerate(_TABLEAU, start=2):  # stage i's state x, the last row's the new state u
        x = names("x" if i < 7 else "u")
        body += [f"    {x[j]} = y{j} + h * ({' + '.join(f'{c!r} * k{s}_{j}' for s, c in row)})" for j in range(size)]
        body += [f"    m, n = {norm(x[d:])}, {norm(x[:d])}",
                 "    v = cv * m**ev if m else 0.0",
                 "    f = cf * n**ef if n or singular else 0.0"]  # 0.0**ef raises where the force is undefined
        body += [f"    k{i}_{j} = v * {x[d + j]} if m else 0.0" for j in range(d)]
        body += [f"    k{i}_{d + j} = f * {x[j]} if n else 0.0" for j in range(d)]
    y_new, f_new = f"[{', '.join(names('u'))}]", f"({', '.join(names('k7_'))})"
    body += ["except (OverflowError, ZeroDivisionError):",
             "    _list_attempt(params, pot, y, k1, h)",
             "    raise",
             f"pack(kbuf, 0, {', '.join(f'k{i}_{j}' for i in range(1, 8) for j in range(size))})",
             "errdot(kbuf, ebuf)",
             f"{', '.join(names('e'))} = ebuf.tolist()",
             "try:"]
    for j in range(size):  # b if b > a else a is max(a, b), NaN included
        body += [f"    a, b = abs(y{j}), abs(u{j})",
                 f"    r{j} = h * e{j} / (tol{j} + rel_tol * (b if b > a else a))"]
    body += [f"    err = sqrt(({' + '.join(f'{r} * {r}' for r in names('r'))}) / {size})",
             "except ZeroDivisionError:",
             "    err = inf",
             f"c = {_SAFETY!r} * err**{_ORDER_EXP!r} if err else {_MAX_FACTOR!r}",  # min(10, max(0.2, c))
             f"factor = {_MAX_FACTOR!r} if c > {_MAX_FACTOR!r} else c if c > {_MIN_FACTOR!r} else {_MIN_FACTOR!r}",
             f"finite = {' + '.join(f'({x} - {x})' for x in names('u') + ['err'])} == 0.0",  # inf - inf is NaN
             "if err > 1.0 or not finite:",
             f"    return {y_new}, {f_new}, err, factor, finite, None, ()"]
    q_dot_p = " + ".join(["0.0"] + [f"u{j} * u{d + j}" for j in range(d)])
    values = [f"u{i} - lv{r}" if i is not None else q_dot_p for r, (i, _) in enumerate(layout)]
    crossed = [" or ".join([f"a{r} < 0.0 <= g{r}"] * (way >= 0) + [f"a{r} > 0.0 >= g{r}"] * (way <= 0))
               for r, (_, way) in enumerate(layout)]  # a row leaving 0 departs an event, not crossing one
    g = f"[{', '.join(names('g', len(layout)))}]"
    body += [f"g{r} = {value}" for r, value in enumerate(values)]
    body += [f"[{', '.join(names('a', len(layout)))}] = g",
             f"if {' or '.join(crossed) or 'False'}:",  # the common path, where no row crosses, tests one chain
             f"    return {y_new}, {f_new}, err, factor, True, {g}, "
             f"[r for r, c in enumerate([{', '.join(crossed)}]) if c]",
             f"return {y_new}, {f_new}, err, factor, True, {g}, ()"]
    source = "\n".join([
        "def bind(params, pot, atol, rel_tol, kbuf, ebuf, levels):",
        "    (cv, ev, cf, ef), singular = _rate_constants(params, pot), pot.degree <= 1.0",
        f"    {', '.join(names('tol'))} = atol",
        f"    [{', '.join(names('lv', len(layout)))}] = levels",
        "    def values(y):",
        f"        {', '.join(names('u'))} = y",
        f"        return [{', '.join(values)}]",
        "    def attempt(y, k1, h, g):",
        *(f"        {line}" for line in body),
        "    return attempt, values",
    ])
    scope = {"_rate_constants": _rate_constants, "_list_attempt": _list_attempt, "errdot": _ERR.dot,
             "pack": struct.Struct(f"{7 * size}d").pack_into,
             "fabs": math.fabs, "hypot": math.hypot, "sqrt": math.sqrt, "inf": math.inf}
    exec(compile(source, f"<attempt kernel, d = {d}>", "exec"), scope)
    return scope["bind"]


def _initial_step(
    params: FractionalParams, pot: PowerLawPotential, y0: list[float], f0: list[float],
    atol: list[float], rel_tol: float, span: float,
) -> float:
    """Starting step size from the local magnitude and curvature of the field."""
    scale = [tol + rel_tol * abs(a) for tol, a in zip(atol, y0)]
    d0 = _rms([a / s for a, s in zip(y0, scale)])
    d1 = _rms([a / s for a, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = _field(params, pot, [a + h0 * b for a, b in zip(y0, f0)])
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _event_rows(d: int, q_levels: Sequence, radial_direction: int | None, stop_after) -> tuple:
    """The event rows of a run and the count of events that ends the run, 0 without stop_after=(kind, n),
    which keeps the rows of its kind alone.  One row (kind, component, index, level, direction) per event
    function: turning points (p_j = 0), origin crossings (q_j = 0), the level crossings q[c] = level, and
    optionally the zeros of q.p, last.  A row's value is y[index] - level, or q.p where index is None;
    direction +1 counts rising zeros only, -1 falling only, 0 both.  Malformed options are DomainErrors."""
    rows = [("turning_point", j, d + j, 0.0, 0) for j in range(d)]
    rows += [("origin_crossing", j, j, 0.0, 0) for j in range(d)]
    if not isinstance(q_levels, (tuple, list)):
        raise DomainError(f"q_levels must be a sequence of (component, level) pairs, got {q_levels!r}")
    for entry in q_levels:
        if not (isinstance(entry, (tuple, list)) and len(entry) == 2):
            raise DomainError(f"level crossing {entry!r} is not a (component, real level) pair")
        comp, level = entry
        require_finite(component=comp, level=level)
        if not (isinstance(comp, (int, np.integer)) and 0 <= comp < d):
            raise DomainError(f"level-crossing component {comp} outside dimension {d}")
        rows.append(("custom", int(comp), int(comp), float(level), 0))
    if radial_direction is not None:
        if radial_direction not in (-1, 0, 1):
            raise DomainError(f"radial_direction must be -1, 0 or +1, got {radial_direction!r}")
        rows.append(("custom", None, None, 0.0, int(radial_direction)))
    kind, n = stop_after if isinstance(stop_after, (tuple, list)) and len(stop_after) == 2 else (None, 0)
    stoppable = ("custom",) if rows[2 * d:] else ("turning_point", "origin_crossing")
    require_finite(stop_after_count=n)
    if stop_after is not None and not (isinstance(n, (int, np.integer)) and n >= 1 and kind in stoppable):
        raise DomainError(f"stop_after needs kind {' or '.join(stoppable)} and a count >= 1, got {stop_after!r}")
    return [row for row in rows if stop_after is None or row[0] == kind], n


_MAX_HALVINGS = 60  # exhausts a double's 53-bit mantissa with room to spare


def _locate(values: Callable, r: int, seg: DenseSegment, g_lo: float) -> float:
    """Bisection in theta on the step's quartic for the zero of event row r
    of values, until the midpoint's time t + mid * width equals an end's: to the
    precision of t, in at most _MAX_HALVINGS halvings.  Returns theta in [0, 1]."""
    lo, hi = 0.0, 1.0
    t, w = seg.t_start, seg.width
    neg = g_lo < 0.0
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if t + mid * w in (t + lo * w, t + hi * w):
            break
        gm = values(seg.at(mid).tolist())[r]
        if gm == 0.0:
            return mid
        lo, hi = (mid, hi) if (gm < 0.0) == neg else (lo, mid)
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
    "<what> at t = ..., y = ..." plus the awaited ``stop_after``.  The error estimate's sum order
    is the host BLAS kernel's, so the steps can differ across CPUs at rounding level: 10 periods
    at alpha = beta = 1.5 from (0, 1) take 3014/1262 accepted/rejected steps on an OpenBLAS
    SkylakeX core, 3003/1243 on Haswell and 3007/1256 on Sandybridge.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    if not (isinstance(span, (tuple, list)) and len(span) == 2):
        raise DomainError(f"span must be a (t0, t1) pair, got {span!r}")
    # an open span, t1 = inf, is legal with stop_after; an array t1 is refused before it is compared
    require_finite(t0=span[0], t1=span[1] if np.ndim(span[1]) or span[1] != math.inf else 0.0)
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
    kbuf = np.empty((7, 2 * d))  # the attempt's stages
    attempt, values = _kernel(d, tuple((row[2], row[4]) for row in rows))(
        params, pot, atol, cfg.rel_tol, kbuf, np.empty(2 * d), [row[3] for row in rows])
    widths: list[float] = []
    events: list[EventRecord] = []
    accepted = rejected = 0

    f = _field(params, pot, y)
    try:
        h = _initial_step(params, pot, y, f, atol, cfg.rel_tol, t1 - t0)
    except ZeroDivisionError:  # a zero error scale or a non-finite field; the first step reports it
        h = math.nan
    t = t0
    g_old = values(y)
    h_min = 10.0 * abs(math.ulp(t))

    while True:
        if accepted + rejected >= cfg.max_steps:
            raise failure(MaxStepsExceeded, f"exceeded {cfg.max_steps} steps", t, y)
        if h < h_min:
            raise failure(StepSizeUnderflow, f"step size underflow ({h:.3e})", t, y)
        if p_band and (p_norm := math.hypot(*y[d:])) < p_band:
            pdot_norm = math.hypot(*f[d:])
            if pdot_norm > 0.0:
                h = min(h, (0.5 * p_norm + 1e-5 * p_scale) / pdot_norm)
        finished = t + h >= t1  # the span's last step; a stop event may end the run sooner
        if finished:
            h = t1 - t

        # g_new is None on a rejected or non-finite attempt; crossed, the event rows that crossed
        y_new, f_new, err_norm, factor, finite, g_new, crossed = attempt(y, f, h, g_old)
        t_new = t + h
        if g_new is None or not math.isfinite(t_new):
            if not (finite and math.isfinite(t_new)):
                raise failure(IntegrationError, f"non-finite step (h = {h}, error norm = {err_norm}, "
                              f"y -> {np.array(y_new)})", t, y)
            rejected += 1
            h *= factor
            continue

        accepted += 1
        if crossed:  # locate the sign crossings of the event functions on this step
            seg = DenseSegment(t, h, np.array(y), kbuf.T @ _DENSE)
            hits = sorted((_locate(values, r, seg, g_old[r]), r) for r in crossed)
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
        h_min = 10.0 * abs(math.ulp(t))
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


guard_layer(globals())
