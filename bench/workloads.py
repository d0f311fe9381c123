"""Seeded inputs, task bodies and correctness gates for the four workloads.

A task is one user-level computation driven through fracmech's public API.
``run`` performs it (this is the timed part) and returns its outputs;
``check`` runs afterwards, outside the timed section, and returns the task's
gated relative error or raises :class:`GateMiss`.

Every library call goes through an attribute of the ``fracmech`` package or
of one of its modules, never through a name imported into this file, so the
traced run sees the calls once the tracer has replaced those attributes.

Inputs are drawn from the period-sweep domain: alpha, beta uniform in
[1.1, 2] and energy log-uniform in [0.5, 10] (kepler_orbit draws alpha in
[1.25, 2] and a launch momentum in [0.5, 0.9] instead).  Task i sits at
point i of a low-discrepancy sequence whose random shift comes from the seed,
so any prefix of the task list covers the domain evenly whatever the seed;
this keeps run-to-run spread down without fixing the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Drift budget setting used by the test suite (conftest TIGHT_CFG).
TIGHT_RTOL = 1e-13
TIGHT_ATOL = 1e-15

DENSE_SAMPLES = 400   # Trajectory.eval calls per dense_orbit task
HJ_SWEEP = 192        # hj_trajectory calls per closed_form task
ROUNDTRIP_FRACTIONS = (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95, 0.999)
LEVELS = 12


class GateMiss(Exception):
    """A task's output missed its correctness gate."""


@dataclass(frozen=True)
class Workload:
    name: str
    index: int               # selects the random stream; never reused
    dims: int                # dimensions of a task's point in the unit cube
    make: Callable[[np.ndarray], dict]
    run: Callable[[Any, dict], Any]
    check: Callable[[Any, dict, Any], float]
    time_limit_s: float      # per-task wall-clock limit
    planned_ms: float        # task time at this commit, reference speed; sizes a run
    trace_tasks: int         # tasks in the traced run (fixed, so counts repeat)


def _generators(dims: int) -> np.ndarray:
    """Steps of the R_d low-discrepancy sequence: powers of 1/phi_d, where
    phi_d is the positive root of x**(dims + 1) = x + 1 (Roberts, 2018)."""
    phi = 2.0
    for _ in range(60):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    return phi ** -np.arange(1.0, dims + 1)


def _unit_draw(seed: int, index: int, dims: int, i: int) -> np.ndarray:
    """Task i's point in [0, 1)**dims: the seed's random shift plus i steps."""
    shift = np.random.default_rng([seed, index]).random(dims)
    return (shift + i * _generators(dims)) % 1.0


def make_inputs(workload: "Workload", seed: int, i: int) -> dict:
    """Inputs of task ``i`` (i >= 0 measured, i = -1 the untimed warm-up)."""
    return workload.make(_unit_draw(seed, workload.index, workload.dims, i))


def _exponent(u: float, lo: float = 1.1, hi: float = 2.0) -> float:
    return float(lo + (hi - lo) * u)


def _energy(u: float) -> float:
    return float(math.exp(math.log(0.5) + (math.log(10.0) - math.log(0.5)) * u))


def replica(inp: dict, r: int) -> dict:
    """Inputs of the r-th timing of one task: every float shrunk by r * 1e-9.

    Each task is timed more than once and its best time kept.  Shrinking
    the inputs by a relative 1e-9 per replica leaves the work the same but
    makes the replicas distinct, so no cache inside the library can answer
    a replica from an earlier one.  Shrinking keeps every value in its
    domain (alpha <= 2 is a hard limit); the scale factor rho is exact.
    """
    f = 1.0 - 1e-9 * r

    def shrink(key, v):
        if key == "rho":
            return v
        if isinstance(v, tuple):
            return tuple(x * f for x in v)
        return v * f

    return {k: shrink(k, v) for k, v in inp.items()}


def first_inputs(workload: "Workload", seed: int, n: int) -> list[dict]:
    return [make_inputs(workload, seed, i) for i in range(n)]


def _oscillator_inputs(u: np.ndarray) -> dict:
    return {"alpha": _exponent(u[0]), "beta": _exponent(u[1]), "energy": _energy(u[2])}


def _spec(fm, inp: dict):
    return fm.OscillatorSpec.from_exponents(inp["alpha"], inp["beta"], energy=inp["energy"])


def _finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise GateMiss(f"non-finite output {v!r}")


# ------------------------------------------------------------ period_sweep


def _sweep_run(fm, inp: dict):
    spec = _spec(fm, inp)
    return (
        fm.period(spec),
        fm.period_quadrature(spec),
        fm.measure_period(spec.params, spec.pot, inp["energy"]),
    )


def _sweep_check(fm, inp: dict, out) -> float:
    _finite(*out)
    closed = out[0]
    spread = max(abs(x - y) for x in out for y in out) / closed
    if not spread < 1e-4:
        raise GateMiss(f"three-route period spread {spread:.3e} >= 1e-4")
    return spread


# ------------------------------------------------------------- dense_orbit


def _dense_run(fm, inp: dict):
    spec = _spec(fm, inp)
    full = fm.period(spec)
    p_launch = (inp["energy"] / spec.params.d_alpha) ** (1.0 / inp["alpha"])
    ic = fm.InitialConditions(q0=np.array([0.0]), p0=np.array([p_launch]))
    cfg = fm.IntegratorConfig(rel_tol=TIGHT_RTOL, abs_tol=TIGHT_ATOL)
    traj, _ = fm.integrate(spec.params, spec.pot, ic, (0.0, full), cfg)
    times = np.linspace(0.0, traj.t_end, DENSE_SAMPLES)
    qs = np.array([traj.eval(float(t)).q[0] for t in times])
    act = fm.action(spec.params, spec.pot, traj)
    return traj, times, qs, act


def _dense_check(fm, inp: dict, out) -> float:
    traj, times, qs, act = out
    _finite(act, *qs)
    drift = traj.energy_drift()
    if not drift < 1e-8:
        raise GateMiss(f"energy drift {drift:.3e} >= 1e-8")
    spec = _spec(fm, inp)
    q_turn = spec.q_turn
    mismatch = max(
        abs(q - fm.hj_trajectory(spec, float(t))) for q, t in zip(qs, times)
    ) / q_turn
    if not mismatch < 1e-6:
        raise GateMiss(f"|q_ode - q_hj| / q_turn = {mismatch:.3e} >= 1e-6")
    return max(drift, mismatch)


# ------------------------------------------------------------ kepler_orbit


def _kepler_inputs(u: np.ndarray) -> dict:
    return {
        "alpha": _exponent(u[0], 1.25, 2.0),
        "v": float(0.5 + 0.4 * u[1]),
        "rho": 2.0 if u[2] < 0.5 else 4.0,
    }


def _kepler_run(fm, inp: dict):
    ic = fm.InitialConditions(q0=np.array([1.0, 0.0]), p0=np.array([0.0, inp["v"]]))
    return fm.fractional_kepler_check(inp["alpha"], ic, [inp["rho"]])


def _kepler_check(fm, inp: dict, out) -> float:
    row = out.rows[0]
    _finite(out.base_radial_period, row.measured_ratio, row.predicted_ratio)
    err = abs(math.log(row.measured_ratio / row.predicted_ratio)) / math.log(inp["rho"])
    if not err <= 1e-3:
        raise GateMiss(f"slope error {err:.3e} > 1e-3")
    return err


# ------------------------------------------------------------- closed_form


def _closed_inputs(u: np.ndarray) -> dict:
    inp = _oscillator_inputs(u)
    # incomplete-Beta arguments in (0.02, 0.98)
    inp["xs"] = tuple(float(0.02 + 0.96 * x) for x in u[3:7])
    return inp


def _closed_run(fm, inp: dict):
    spec = _spec(fm, inp)
    full = fm.period(spec)
    sweep = [fm.hj_trajectory(spec, full * k / HJ_SWEEP) for k in range(HJ_SWEEP)]
    q_turn = spec.q_turn
    roundtrip = []
    for f in ROUNDTRIP_FRACTIONS:
        q = f * q_turn
        roundtrip.append((q, fm.hj_position(spec, fm.hj_time_of_flight(spec, q))))
    levels = [fm.quantum_levels(spec, 1.0, n) for n in range(LEVELS)]
    mu, nu = 1.0 / inp["beta"], 1.0 / inp["alpha"]
    hyp = [fm.hyp2f1(mu, 1.0 - nu, mu + 1.0, x) for x in inp["xs"]]
    ib = [fm.inc_beta(mu, nu, x) for x in inp["xs"]]
    inv = [fm.inv_inc_beta(mu, nu, v) for v in ib]
    return full, sweep, roundtrip, levels, hyp, ib, inv


def _closed_check(fm, inp: dict, out) -> float:
    # imported here, not at the top, so the oracle never counts toward setup_s
    from scipy import special

    full, sweep, roundtrip, levels, hyp, ib, inv = out
    _finite(full, *sweep, *levels, *hyp, *ib, *inv)
    spec = _spec(fm, inp)
    q_turn = spec.q_turn
    if max(abs(q) for q in sweep) > q_turn * (1.0 + 1e-12):
        raise GateMiss("hj_trajectory left [-q_turn, q_turn]")
    trip = max(abs(q2 - q) for q, q2 in roundtrip) / q_turn
    if not trip < 1e-10:
        raise GateMiss(f"time-of-flight roundtrip error {trip:.3e} >= 1e-10 q_turn")
    mu, nu = 1.0 / inp["beta"], 1.0 / inp["alpha"]
    oracle = [special.betainc(mu, nu, x) * special.beta(mu, nu) for x in inp["xs"]]
    ib_err = max(abs(g - r) / r for g, r in zip(ib, oracle))
    if not ib_err < 1e-10:
        raise GateMiss(f"inc_beta vs scipy.special {ib_err:.3e} >= 1e-10")
    for x, x_inv in zip(inp["xs"], inv):
        if abs(special.betainc(mu, nu, x_inv) - special.betainc(mu, nu, x)) > 1e-12:
            raise GateMiss(f"inv_inc_beta residual above 1e-12 B(a, b) at x={x}")
    if not np.all(np.diff(np.diff(levels)) < 0.0):
        raise GateMiss("semiclassical level gaps do not decrease")
    return max(trip, ib_err)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("period_sweep", 1, 3, _oscillator_inputs, _sweep_run, _sweep_check,
                 time_limit_s=10.0, planned_ms=115.0, trace_tasks=40),
        Workload("dense_orbit", 2, 3, _oscillator_inputs, _dense_run, _dense_check,
                 time_limit_s=20.0, planned_ms=600.0, trace_tasks=6),
        Workload("kepler_orbit", 3, 3, _kepler_inputs, _kepler_run, _kepler_check,
                 time_limit_s=20.0, planned_ms=150.0, trace_tasks=24),
        Workload("closed_form", 4, 7, _closed_inputs, _closed_run, _closed_check,
                 time_limit_s=5.0, planned_ms=17.0, trace_tasks=160),
    )
}


def output_bytes(out) -> bytes:
    """Canonical bytes of a task's outputs, for the bitwise traced/untraced check."""
    if isinstance(out, (tuple, list)):
        return b"(" + b",".join(output_bytes(o) for o in out) + b")"
    if isinstance(out, np.ndarray):
        return out.tobytes()
    if isinstance(out, float):
        return float(out).hex().encode()
    if hasattr(out, "times") and hasattr(out, "energies"):  # Trajectory
        return b"".join(
            np.ascontiguousarray(a).tobytes()
            for a in (out.times, out.positions, out.momenta, out.energies)
        )
    if hasattr(out, "rows"):  # KeplerReport
        return output_bytes(
            (out.base_radial_period, *[(r.measured_ratio, r.predicted_ratio) for r in out.rows])
        )
    return repr(out).encode()
