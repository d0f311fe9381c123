"""Command-line front end.

Subcommands: simulate (trajectory CSV), period (three-route report JSON),
hj (time-of-flight solution vs integrated motion CSV), sweep (period grid
CSV), kepler (orbital scaling CSV + fit summary JSON).

Every run writes a JSON manifest echoing the fully resolved parameter
set, the tolerances, the output paths, and the wall-clock duration, so a
data file can always be traced back to the exact invocation that
produced it.  Floats are serialized with repr, the shortest
representation that reparses to the identical value, and CSV files use
LF line endings unconditionally; identical flags therefore give
byte-identical outputs.

Exit codes: 0 success, 2 flag or domain validation, 3 numeric failure
(integration breakdown or a cross-check beyond its tolerance), 4
physically unsuitable configuration (unbound or collision orbits).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    FracmechError,
    IntegrationError,
    UnsuitablePhysicsError,
)
from .integrate import IntegratorConfig, integrate, measure_period
from .model import (
    FractionalParams,
    InitialConditions,
    PowerLawPotential,
    abs_power,
)
from .oscillator import (
    OscillatorSpec,
    hj_trajectory,
    period,
    period_quadrature,
    period_report,
)
from .similarity import fractional_kepler_check

__all__ = ["main"]

_TINY = 1e-300


def _fail(message: str, code: int) -> int:
    print(f"fracmech: error: {message}", file=sys.stderr)
    return code


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty number list: {text!r}")
    return values


def _load_config(path: str) -> dict[str, str]:
    """Plain `key = value` file; # starts a comment, keys match long flags."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key = value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower().replace("_", "-")] = value.strip()
    return out


def _resolved(args, config: dict[str, str], key: str, conv: Callable, default=None):
    """Flag value if given, else config-file value, else the default."""
    cli = getattr(args, key.replace("-", "_"), None)
    if cli is not None:
        return cli
    if key in config:
        try:
            return conv(config[key])
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise DomainError(f"bad config value for {key}: {exc}") from exc
    return default


def _config_flag(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _integrator_config(args, config) -> IntegratorConfig:
    kwargs = {}
    for key, conv in (
        ("rel-tol", float),
        ("abs-tol", float),
        ("event-tol", float),
        ("max-steps", int),
        ("initial-step", float),
    ):
        value = _resolved(args, config, key, conv)
        if value is not None:
            kwargs[key.replace("-", "_")] = value
    return IntegratorConfig(**kwargs)


def _kinetic_params(args, config, d_alpha_default: float | None = None) -> FractionalParams:
    mass = _resolved(args, config, "mass", float)
    alpha = _resolved(args, config, "alpha", float)
    d_alpha = _resolved(args, config, "d-alpha", float)
    if mass is not None:
        if d_alpha is not None:
            raise DomainError("--mass and --d-alpha are mutually exclusive")
        if alpha is not None and alpha != 2.0:
            raise DomainError("--mass fixes alpha = 2; drop --alpha or set it to 2")
        return FractionalParams.from_mass(mass)
    if alpha is None:
        raise DomainError("--alpha is required (or use --mass for the alpha = 2 case)")
    if d_alpha is None:
        if d_alpha_default is None:
            raise DomainError("--d-alpha is required (or use --mass)")
        d_alpha = d_alpha_default
    return FractionalParams(alpha, d_alpha)


def _potential(args, config, g2_default: float | None = None) -> PowerLawPotential:
    g2 = _resolved(args, config, "g2", float)
    beta = _resolved(args, config, "beta", float)
    strength = _resolved(args, config, "strength", float)
    degree = _resolved(args, config, "degree", float)
    s = strength if strength is not None else g2
    d = degree if degree is not None else beta
    if s is None:
        s = g2_default
    if s is None or d is None:
        raise DomainError(
            "potential is underspecified: give --g2/--beta (oscillator form) "
            "or --strength/--degree"
        )
    return PowerLawPotential(s, d)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_manifest(
    path: str,
    subcommand: str,
    parameters: dict,
    cfg: IntegratorConfig,
    outputs: Sequence[str],
    duration: float,
) -> None:
    _write_json(
        path,
        {
            "tool": "fracmech",
            "version": __version__,
            "subcommand": subcommand,
            "parameters": parameters,
            "tolerances": dataclasses.asdict(cfg),
            "outputs": list(outputs),
            "duration_s": duration,
        },
    )


def _out_paths(args, config, default_out: str) -> tuple[str, str]:
    out = _resolved(args, config, "out", str, default_out)
    manifest = _resolved(args, config, "manifest", str, out + ".manifest.json")
    return out, manifest


def cmd_simulate(args, config) -> int:
    started = time.perf_counter()
    params = _kinetic_params(args, config)
    pot = _potential(args, config)
    cfg = _integrator_config(args, config)
    q0 = _resolved(args, config, "q0", _float_list)
    if q0 is None:
        raise DomainError("--q0 is required")
    p0 = _resolved(args, config, "p0", _float_list)
    qdot0 = _resolved(args, config, "qdot0", _float_list)
    ic = InitialConditions(
        q0=np.array(q0, dtype=float),
        p0=None if p0 is None else np.array(p0, dtype=float),
        qdot0=None if qdot0 is None else np.array(qdot0, dtype=float),
    )
    t0 = _resolved(args, config, "t0", float, 0.0)
    t1 = _resolved(args, config, "t1", float)
    if t1 is None:
        raise DomainError("--t1 is required")
    out, manifest = _out_paths(args, config, "trajectory.csv")

    traj, _events = integrate(params, pot, ic, (t0, t1), cfg)
    d = traj.dimension
    e0 = float(traj.energies[0])
    scale = max(abs(e0), _TINY)
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(d)]
        + [f"p{i + 1}" for i in range(d)]
        + ["energy", "energy_drift_rel"]
    )
    rows = [
        [traj.times[i]]
        + list(traj.positions[i])
        + list(traj.momenta[i])
        + [traj.energies[i], abs(traj.energies[i] - e0) / scale]
        for i in range(len(traj.times))
    ]
    _write_csv(out, header, rows)
    _write_manifest(
        manifest,
        "simulate",
        {
            "alpha": params.alpha,
            "d_alpha": params.d_alpha,
            "strength": pot.strength,
            "degree": pot.degree,
            "q0": q0,
            "p0": p0,
            "qdot0": qdot0,
            "t0": t0,
            "t1": t1,
        },
        cfg,
        [out],
        time.perf_counter() - started,
    )
    print(
        f"simulate: {len(rows)} samples, max energy drift "
        f"{max(r[-1] for r in rows):.3e}, wrote {out}"
    )
    return 0


def cmd_period(args, config) -> int:
    started = time.perf_counter()
    params = _kinetic_params(args, config, d_alpha_default=1.0)
    pot = _potential(args, config, g2_default=1.0)
    cfg = _integrator_config(args, config)
    energy = _resolved(args, config, "energy", float, 1.0)
    check_tol = _resolved(args, config, "check-tol", float, 1e-4)
    skip_ode = bool(_resolved(args, config, "skip-ode", _config_flag, False))
    out, manifest = _out_paths(args, config, "period.json")

    spec = OscillatorSpec(params, pot, energy)
    report = period_report(spec, cfg, include_ode=not skip_ode)
    _write_json(
        out,
        {
            "closed_form": report.closed_form,
            "quadrature": report.quadrature,
            "ode_measured": report.ode_measured,
            "max_pairwise_rel_diff": report.max_pairwise_rel_diff,
        },
    )
    _write_manifest(
        manifest,
        "period",
        {
            "alpha": params.alpha,
            "d_alpha": params.d_alpha,
            "g2": pot.strength,
            "beta": pot.degree,
            "energy": energy,
            "check_tol": check_tol,
            "skip_ode": skip_ode,
        },
        cfg,
        [out],
        time.perf_counter() - started,
    )
    print(
        f"period: closed_form={report.closed_form!r} "
        f"max_pairwise_rel_diff={report.max_pairwise_rel_diff:.3e}, wrote {out}"
    )
    if report.max_pairwise_rel_diff > check_tol:
        return _fail(
            f"period routes disagree by {report.max_pairwise_rel_diff:.3e} "
            f"(check tolerance {check_tol:.3e})",
            3,
        )
    return 0


def cmd_hj(args, config) -> int:
    started = time.perf_counter()
    params = _kinetic_params(args, config, d_alpha_default=1.0)
    pot = _potential(args, config, g2_default=1.0)
    cfg = _integrator_config(args, config)
    energy = _resolved(args, config, "energy", float, 1.0)
    samples = _resolved(args, config, "samples", int, 256)
    if samples < 1:
        raise DomainError(f"--samples must be at least 1, got {samples}")
    out, manifest = _out_paths(args, config, "hj_compare.csv")

    spec = OscillatorSpec(params, pot, energy)
    full = period(spec)
    if samples == 1:
        times = [0.0]
    else:
        times = [full * i / (samples - 1) for i in range(samples)]
    # phase convention: at t = 0 the particle crosses the origin moving in
    # the positive direction, so all the energy is kinetic
    p_start = abs_power(energy / params.d_alpha, 1.0 / params.alpha)
    ic = InitialConditions(q0=np.array([0.0]), p0=np.array([p_start]))
    traj, _ = integrate(params, pot, ic, (0.0, full), cfg)
    rows = []
    for t in times:
        q_hj = hj_trajectory(spec, t)
        q_ode = float(traj.eval(t).q[0]) if t > 0.0 else 0.0
        rows.append([t, q_hj, q_ode, abs(q_hj - q_ode)])
    _write_csv(out, ["t", "q_hj", "q_ode", "abs_diff"], rows)
    _write_manifest(
        manifest,
        "hj",
        {
            "alpha": params.alpha,
            "d_alpha": params.d_alpha,
            "g2": pot.strength,
            "beta": pot.degree,
            "energy": energy,
            "samples": samples,
        },
        cfg,
        [out],
        time.perf_counter() - started,
    )
    print(
        f"hj: {len(rows)} samples over one period, max |q_hj - q_ode| = "
        f"{max(r[3] for r in rows):.3e}, wrote {out}"
    )
    return 0


def _sweep_point(task) -> tuple[float, ...]:
    alpha, beta, energy, d_alpha, g2, cfg = task
    spec = OscillatorSpec.from_exponents(alpha, beta, d_alpha, g2, energy)
    t_closed = period(spec)
    t_quad = period_quadrature(spec)
    t_ode = measure_period(spec.params, spec.pot, energy, cfg)
    vals = (t_closed, t_quad, t_ode)
    spread = max(abs(x - y) for x in vals for y in vals) / t_closed
    return (alpha, beta, energy, t_closed, t_quad, t_ode, spread)


def cmd_sweep(args, config) -> int:
    started = time.perf_counter()
    cfg = _integrator_config(args, config)
    alphas = _resolved(args, config, "alphas", _float_list, [1.1, 1.25, 1.5, 1.75, 2.0])
    betas = _resolved(args, config, "betas", _float_list, [1.1, 1.25, 1.5, 1.75, 2.0])
    energies = _resolved(args, config, "energies", _float_list, [0.5, 1.0, 2.0, 10.0])
    d_alpha = _resolved(args, config, "d-alpha", float, 1.0)
    g2 = _resolved(args, config, "g2", float, 1.0)
    jobs = _resolved(args, config, "jobs", int, 1)
    if jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {jobs}")
    for a in alphas:
        if not 1.0 < a <= 2.0:
            raise DomainError(f"sweep alpha {a} outside (1, 2]")
    for b in betas:
        if not 1.0 < b <= 2.0:
            raise DomainError(f"sweep beta {b} outside (1, 2]")
    for e in energies:
        if not e > 0.0:
            raise DomainError(f"sweep energy {e} must be positive")
    out, manifest = _out_paths(args, config, "sweep.csv")

    tasks = [
        (a, b, e, d_alpha, g2, cfg)
        for a in sorted(alphas)
        for b in sorted(betas)
        for e in sorted(energies)
    ]
    if jobs > 1:
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]
    _write_csv(
        out,
        ["alpha", "beta", "energy", "T_closed", "T_quad", "T_ode", "rel_spread"],
        rows,
    )
    _write_manifest(
        manifest,
        "sweep",
        {
            "alphas": sorted(alphas),
            "betas": sorted(betas),
            "energies": sorted(energies),
            "d_alpha": d_alpha,
            "g2": g2,
            "jobs": jobs,
        },
        cfg,
        [out],
        time.perf_counter() - started,
    )
    print(
        f"sweep: {len(rows)} grid points, max rel_spread "
        f"{max(r[6] for r in rows):.3e}, wrote {out}"
    )
    return 0


def cmd_kepler(args, config) -> int:
    started = time.perf_counter()
    params = _kinetic_params(args, config, d_alpha_default=1.0)
    cfg = _integrator_config(args, config)
    strength = _resolved(args, config, "strength", float, -1.0)
    q0 = _resolved(args, config, "q0", _float_list, [1.0, 0.0])
    p0 = _resolved(args, config, "p0", _float_list, [0.0, 0.8])
    rhos = _resolved(args, config, "rhos", _float_list, [1.0, 2.0, 4.0, 8.0])
    check_tol = _resolved(args, config, "check-tol", float, 1e-3)
    out, manifest = _out_paths(args, config, "kepler.csv")
    summary_default = str(Path(out).with_name(Path(out).stem + "_summary.json"))
    summary_path = _resolved(args, config, "summary", str, summary_default)

    report = fractional_kepler_check(
        params.alpha,
        InitialConditions(q0=np.array(q0), p0=np.array(p0)),
        rhos,
        cfg,
        d_alpha=params.d_alpha,
        strength=strength,
    )
    _write_csv(
        out,
        ["rho", "T_ratio_measured", "T_ratio_predicted", "rel_err"],
        [[r.rho, r.measured_ratio, r.predicted_ratio, r.rel_err] for r in report.rows],
    )
    passed = (
        None
        if report.fitted_slope is None
        else abs(report.fitted_slope - report.predicted_slope) <= check_tol
    )
    _write_json(
        summary_path,
        {
            "predicted_slope": report.predicted_slope,
            "fitted_slope": report.fitted_slope,
            "fit_residual": report.fit_residual,
            "base_radial_period": report.base_radial_period,
            "check_tol": check_tol,
            "passed": passed,
        },
    )
    _write_manifest(
        manifest,
        "kepler",
        {
            "alpha": params.alpha,
            "d_alpha": params.d_alpha,
            "strength": strength,
            "q0": q0,
            "p0": p0,
            "rhos": rhos,
            "check_tol": check_tol,
        },
        cfg,
        [out, summary_path],
        time.perf_counter() - started,
    )
    if report.fitted_slope is None:
        print(f"kepler: single scale factor, no fit; wrote {out}")
        return 0
    print(
        f"kepler: fitted slope {report.fitted_slope!r} vs predicted "
        f"{report.predicted_slope!r}, wrote {out}"
    )
    if not passed:
        return _fail(
            f"fitted slope {report.fitted_slope} deviates from predicted "
            f"{report.predicted_slope} by more than {check_tol}",
            3,
        )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value defaults file; explicit flags win")
    common.add_argument("--out", help="primary output path")
    common.add_argument("--manifest", help="manifest JSON path (default: OUT.manifest.json)")
    common.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    common.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    common.add_argument("--event-tol", type=float, help="event location tolerance")
    common.add_argument("--max-steps", type=int, help="integrator step budget")
    common.add_argument("--initial-step", type=float, help="fixed first step size")

    kinetic = argparse.ArgumentParser(add_help=False)
    kinetic.add_argument("--alpha", type=float, help="kinetic exponent in (1, 2]")
    kinetic.add_argument("--d-alpha", type=float, help="kinetic scale factor")
    kinetic.add_argument("--mass", type=float, help="shorthand for alpha=2, d-alpha=1/(2 mass)")

    potential = argparse.ArgumentParser(add_help=False)
    potential.add_argument("--g2", type=float, help="oscillator strength g^2 (alias of --strength)")
    potential.add_argument("--beta", type=float, help="oscillator degree (alias of --degree)")
    potential.add_argument("--strength", type=float, help="potential prefactor, signed")
    potential.add_argument("--degree", type=float, help="potential exponent, nonzero")

    parser = argparse.ArgumentParser(
        prog="fracmech",
        description="Fractional-kinetics classical mechanics toolkit",
    )
    parser.add_argument("--version", action="version", version=f"fracmech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser(
        "simulate",
        parents=[common, kinetic, potential],
        help="integrate the equations of motion and write a trajectory CSV",
    )
    p_sim.add_argument("--q0", type=_float_list, help="initial position, comma-separated")
    p_sim.add_argument("--p0", type=_float_list, help="initial momentum")
    p_sim.add_argument("--qdot0", type=_float_list, help="initial velocity (alternative to --p0)")
    p_sim.add_argument("--t0", type=float, help="span start (default 0)")
    p_sim.add_argument("--t1", type=float, help="span end")
    p_sim.set_defaults(func=cmd_simulate)

    p_per = sub.add_parser(
        "period",
        parents=[common, kinetic, potential],
        help="closed-form vs quadrature vs measured oscillation period",
    )
    p_per.add_argument("--energy", type=float, help="oscillator energy, positive")
    p_per.add_argument("--check-tol", type=float, help="max allowed route disagreement (default 1e-4)")
    p_per.add_argument("--skip-ode", action="store_true", default=None, help="skip the ODE measurement")
    p_per.set_defaults(func=cmd_period)

    p_hj = sub.add_parser(
        "hj",
        parents=[common, kinetic, potential],
        help="time-of-flight solution vs integrated motion over one period",
    )
    p_hj.add_argument("--energy", type=float, help="oscillator energy, positive")
    p_hj.add_argument("--samples", type=int, help="number of comparison times (default 256)")
    p_hj.set_defaults(func=cmd_hj)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[common],
        help="period grid over exponents and energies",
    )
    p_sweep.add_argument("--alphas", type=_float_list, help="kinetic exponents, comma-separated")
    p_sweep.add_argument("--betas", type=_float_list, help="potential degrees")
    p_sweep.add_argument("--energies", type=_float_list, help="energies")
    p_sweep.add_argument("--d-alpha", type=float, help="kinetic scale factor (default 1)")
    p_sweep.add_argument("--g2", type=float, help="oscillator strength (default 1)")
    p_sweep.add_argument("--jobs", type=int, help="parallel worker processes (default 1)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_kep = sub.add_parser(
        "kepler",
        parents=[common, kinetic],
        help="orbital-period scaling against the similarity prediction",
    )
    p_kep.add_argument("--strength", type=float, help="attractive strength, negative (default -1)")
    p_kep.add_argument("--q0", type=_float_list, help="planar initial position (default 1,0)")
    p_kep.add_argument("--p0", type=_float_list, help="planar initial momentum (default 0,0.8)")
    p_kep.add_argument("--rhos", type=_float_list, help="length scale factors (default 1,2,4,8)")
    p_kep.add_argument("--check-tol", type=float, help="max |fitted - predicted| slope (default 1e-3)")
    p_kep.add_argument("--summary", help="fit summary JSON path")
    p_kep.set_defaults(func=cmd_kepler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        return args.func(args, config)
    except UnsuitablePhysicsError as exc:
        return _fail(str(exc), 4)
    except DomainError as exc:
        return _fail(str(exc), 2)
    except IntegrationError as exc:
        return _fail(str(exc), 3)
    except FracmechError as exc:
        return _fail(str(exc), 3)
    except OSError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
