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

A ``--config`` file supplies defaults for the chosen subcommand's long
flags: its values become the subparser's argparse defaults, so explicit
flags still win and every value goes through the flag's own type.

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
from .errors import DomainError, FracmechError, UnsuitablePhysicsError
from .integrate import IntegratorConfig, integrate
from .model import FractionalParams, InitialConditions, PowerLawPotential, abs_power
from .oscillator import OscillatorSpec, hj_trajectory, period, period_report
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
        out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _config_flag(key: str, text: str) -> bool:
    on, off = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
    word = text.strip().lower()
    if word not in on + off:
        raise DomainError(f"config key {key!r} takes {'/'.join(on)} or {'/'.join(off)}, got {text!r}")
    return word in on


def _tolerance(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return value


def _config_defaults(args: argparse.Namespace) -> dict:
    """The config file of a first parse as defaults for its subcommand.

    Keys must name a long flag of that subcommand; values stay strings, so
    argparse converts them with the flag's type, except for on/off flags,
    whose ``store_true`` action never converts a default.
    """
    defaults = {}
    for key, value in _load_config(args.config).items():
        if key in ("func", "command", "config") or not hasattr(args, key):
            raise DomainError(f"unknown config key {key!r} for {args.command}")
        current = getattr(args, key)
        defaults[key] = _config_flag(key, value) if isinstance(current, bool) else value
    return defaults


def _integrator_config(args) -> IntegratorConfig:
    """The tolerances given as flags or config values, library defaults for the rest."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(IntegratorConfig)}
    return IntegratorConfig(**{k: v for k, v in given.items() if v is not None})


def _kinetic_params(args, d_alpha_default: float | None = None) -> FractionalParams:
    mass, alpha, d_alpha = args.mass, args.alpha, args.d_alpha
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


def _potential(args) -> PowerLawPotential:
    s = args.strength if args.strength is not None else args.g2
    d = args.degree if args.degree is not None else args.beta
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


def _physics(
    params: FractionalParams,
    pot: PowerLawPotential | None = None,
    names: tuple[str, str] = ("strength", "degree"),
) -> dict:
    """The resolved kinetic parameters and, under ``names``, the potential."""
    echo = {"alpha": params.alpha, "d_alpha": params.d_alpha}
    if pot is not None:
        echo.update(zip(names, (pot.strength, pot.degree)))
    return echo


def _echo(args, *flags: str) -> dict:
    """The given flags' values, as the manifest echoes them."""
    return {flag: getattr(args, flag) for flag in flags}


# Each command returns (manifest parameters, output paths, failure), where
# failure is None or the message of a cross-check beyond its tolerance.


def cmd_simulate(args, cfg: IntegratorConfig):
    """Integrate the equations of motion and write a trajectory CSV."""
    params = _kinetic_params(args)
    pot = _potential(args)
    if args.q0 is None:
        raise DomainError("--q0 is required")
    ic = InitialConditions(q0=args.q0, p0=args.p0, qdot0=args.qdot0)
    if args.t1 is None:
        raise DomainError("--t1 is required")

    traj, _events = integrate(params, pot, ic, (args.t0, args.t1), cfg)
    d = traj.dimension
    e0 = float(traj.energies[0])
    drift = np.abs(traj.energies - e0) / max(abs(e0), _TINY)
    header = (["t"] + [f"q{i + 1}" for i in range(d)] + [f"p{i + 1}" for i in range(d)]
              + ["energy", "energy_drift_rel"])
    table = np.column_stack([traj.times, traj.positions, traj.momenta, traj.energies, drift])
    _write_csv(args.out, header, table)
    print(
        f"simulate: {len(traj.times)} samples, max energy drift "
        f"{drift.max():.3e}, wrote {args.out}"
    )
    parameters = {**_physics(params, pot), **_echo(args, "q0", "p0", "qdot0", "t0", "t1")}
    return parameters, [args.out], None


def cmd_period(args, cfg: IntegratorConfig):
    """Closed-form vs quadrature vs measured oscillation period."""
    params = _kinetic_params(args, d_alpha_default=1.0)
    pot = _potential(args)
    spec = OscillatorSpec(params, pot, args.energy)
    report = period_report(spec, cfg, include_ode=not args.skip_ode)
    _write_json(args.out, dataclasses.asdict(report))
    print(
        f"period: closed_form={report.closed_form!r} "
        f"max_pairwise_rel_diff={report.max_pairwise_rel_diff:.3e}, wrote {args.out}"
    )
    failure = None
    if report.max_pairwise_rel_diff > args.check_tol:
        failure = (
            f"period routes disagree by {report.max_pairwise_rel_diff:.3e} "
            f"(check tolerance {args.check_tol:.3e})"
        )
    echo = _echo(args, "energy", "check_tol", "skip_ode")
    return {**_physics(params, pot, ("g2", "beta")), **echo}, [args.out], failure


def cmd_hj(args, cfg: IntegratorConfig):
    """Time-of-flight solution vs integrated motion over one period."""
    params = _kinetic_params(args, d_alpha_default=1.0)
    pot = _potential(args)
    energy, samples = args.energy, args.samples
    if samples < 1:
        raise DomainError(f"--samples must be at least 1, got {samples}")

    spec = OscillatorSpec(params, pot, energy)
    full = period(spec)
    times = [full * i / max(samples - 1, 1) for i in range(samples)]
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
    _write_csv(args.out, ["t", "q_hj", "q_ode", "abs_diff"], rows)
    print(
        f"hj: {len(rows)} samples over one period, max |q_hj - q_ode| = "
        f"{max(r[3] for r in rows):.3e}, wrote {args.out}"
    )
    parameters = {**_physics(params, pot, ("g2", "beta")), **_echo(args, "energy", "samples")}
    return parameters, [args.out], None


def _sweep_point(task) -> tuple[float, ...]:
    spec, cfg = task
    r = period_report(spec, cfg)
    return (spec.alpha, spec.beta, spec.energy, r.closed_form, r.quadrature, r.ode_measured,
            r.max_pairwise_rel_diff)


def cmd_sweep(args, cfg: IntegratorConfig):
    """Period grid over exponents and energies."""
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    # sorted in place, so the grid and the manifest echo read the same lists
    args.alphas, args.betas, args.energies = map(sorted, (args.alphas, args.betas, args.energies))
    # every grid point is checked here, by its OscillatorSpec, before any point runs
    tasks = [(OscillatorSpec.from_exponents(a, b, args.d_alpha, args.g2, e), cfg)
             for a in args.alphas for b in args.betas for e in args.energies]
    if args.jobs > 1:
        workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]
    header = ["alpha", "beta", "energy", "T_closed", "T_quad", "T_ode", "rel_spread"]
    _write_csv(args.out, header, rows)
    print(
        f"sweep: {len(rows)} grid points, max rel_spread "
        f"{max(r[6] for r in rows):.3e}, wrote {args.out}"
    )
    parameters = _echo(args, "alphas", "betas", "energies", "d_alpha", "g2", "jobs")
    return parameters, [args.out], None


def cmd_kepler(args, cfg: IntegratorConfig):
    """Orbital-period scaling against the similarity prediction."""
    params = _kinetic_params(args, d_alpha_default=1.0)
    out, check_tol = args.out, args.check_tol
    default_summary = str(Path(out).with_name(Path(out).stem + "_summary.json"))
    summary_path = default_summary if args.summary is None else args.summary

    ic = InitialConditions(q0=args.q0, p0=args.p0)
    report = fractional_kepler_check(
        params.alpha, ic, args.rhos, cfg, d_alpha=params.d_alpha, strength=args.strength
    )
    _write_csv(
        out,
        ["rho", "T_ratio_measured", "T_ratio_predicted", "rel_err"],
        [[r.rho, r.measured_ratio, r.predicted_ratio, r.rel_err] for r in report.rows],
    )
    summary = dataclasses.asdict(report)
    del summary["rows"]
    summary["check_tol"] = check_tol
    summary["passed"] = passed = (
        None
        if report.fitted_slope is None
        else abs(report.fitted_slope - report.predicted_slope) <= check_tol
    )
    _write_json(summary_path, summary)
    failure = None
    if report.fitted_slope is None:
        print(f"kepler: single scale factor, no fit; wrote {out}")
    else:
        print(
            f"kepler: fitted slope {report.fitted_slope!r} vs predicted "
            f"{report.predicted_slope!r}, wrote {out}"
        )
        if not passed:
            failure = (
                f"fitted slope {report.fitted_slope} deviates from predicted "
                f"{report.predicted_slope} by more than {check_tol}"
            )
    parameters = {**_physics(params), **_echo(args, "strength", "q0", "p0", "rhos", "check_tol")}
    return parameters, [out, summary_path], failure


# Each subparser gets its own actions (no ``parents=``), so a config default
# set on one subcommand never leaks into another through a shared action.


def _add_command(sub, name: str, func: Callable, out: str) -> argparse.ArgumentParser:
    p = sub.add_parser(
        name, help=func.__doc__, formatter_class=argparse.ArgumentDefaultsHelpFormatter
    )
    p.set_defaults(func=func)
    p.add_argument("--config", help="key = value defaults file; explicit flags win")
    p.add_argument("--out", default=out, help="primary output path")
    p.add_argument("--manifest", help="manifest JSON path; None writes OUT.manifest.json")
    p.add_argument("--rel-tol", type=float, help="integrator relative tolerance")
    p.add_argument("--abs-tol", type=float, help="integrator absolute tolerance")
    p.add_argument("--event-tol", type=float, help="event location tolerance")
    p.add_argument("--max-steps", type=int, help="integrator step budget")
    p.add_argument("--initial-step", type=float, help="fixed first step size")
    return p


def _add_kinetic(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, help="kinetic exponent in (1, 2]")
    p.add_argument("--d-alpha", type=float, help="kinetic scale factor")
    p.add_argument("--mass", type=float, help="shorthand for alpha=2, d-alpha=1/(2 mass)")


def _add_potential(p: argparse.ArgumentParser, g2: float | None = None) -> None:
    p.add_argument(
        "--g2", type=float, default=g2, help="oscillator strength g^2 (alias of --strength)"
    )
    p.add_argument("--beta", type=float, help="oscillator degree (alias of --degree)")
    p.add_argument("--strength", type=float, help="potential prefactor, signed")
    p.add_argument("--degree", type=float, help="potential exponent, nonzero")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="fracmech",
        description="Fractional-kinetics classical mechanics toolkit",
    )
    parser.add_argument("--version", action="version", version=f"fracmech {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "simulate", cmd_simulate, "trajectory.csv")
    _add_kinetic(p)
    _add_potential(p)
    p.add_argument("--q0", type=_float_list, help="initial position, comma-separated")
    p.add_argument("--p0", type=_float_list, help="initial momentum")
    p.add_argument("--qdot0", type=_float_list, help="initial velocity (alternative to --p0)")
    p.add_argument("--t0", type=float, default=0.0, help="span start")
    p.add_argument("--t1", type=float, help="span end")

    p = _add_command(sub, "period", cmd_period, "period.json")
    _add_kinetic(p)
    _add_potential(p, g2=1.0)
    p.add_argument("--energy", type=float, default=1.0, help="oscillator energy, positive")
    p.add_argument("--check-tol", type=_tolerance, default=1e-4, help="max allowed route disagreement")
    p.add_argument("--skip-ode", action="store_true", help="skip the ODE measurement")

    p = _add_command(sub, "hj", cmd_hj, "hj_compare.csv")
    _add_kinetic(p)
    _add_potential(p, g2=1.0)
    p.add_argument("--energy", type=float, default=1.0, help="oscillator energy, positive")
    p.add_argument("--samples", type=int, default=256, help="number of comparison times")

    p = _add_command(sub, "sweep", cmd_sweep, "sweep.csv")
    grid = [1.1, 1.25, 1.5, 1.75, 2.0]
    p.add_argument("--alphas", type=_float_list, default=grid, help="kinetic exponents")
    p.add_argument("--betas", type=_float_list, default=grid, help="potential degrees")
    p.add_argument("--energies", type=_float_list, default=[0.5, 1.0, 2.0, 10.0], help="energies")
    p.add_argument("--d-alpha", type=float, default=1.0, help="kinetic scale factor")
    p.add_argument("--g2", type=float, default=1.0, help="oscillator strength")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = _add_command(sub, "kepler", cmd_kepler, "kepler.csv")
    _add_kinetic(p)
    p.add_argument("--strength", type=float, default=-1.0, help="attractive strength, negative")
    p.add_argument("--q0", type=_float_list, default=[1.0, 0.0], help="planar initial position")
    p.add_argument("--p0", type=_float_list, default=[0.0, 0.8], help="planar initial momentum")
    p.add_argument("--rhos", type=_float_list, default=[1.0, 2.0, 4.0, 8.0], help="length scales")
    p.add_argument("--check-tol", type=_tolerance, default=1e-3, help="max |fitted - predicted| slope")
    p.add_argument("--summary", help="fit summary JSON path; None writes <OUT stem>_summary.json")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            commands[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        cfg = _integrator_config(args)
        started = time.perf_counter()
        parameters, outputs, failure = args.func(args, cfg)
        manifest = args.manifest if args.manifest is not None else args.out + ".manifest.json"
        _write_json(
            manifest,
            {
                "tool": "fracmech",
                "version": __version__,
                "subcommand": args.command,
                "parameters": parameters,
                "tolerances": dataclasses.asdict(cfg),
                "outputs": outputs,
                "duration_s": time.perf_counter() - started,
            },
        )
        return 0 if failure is None else _fail(failure, 3)
    except UnsuitablePhysicsError as exc:
        return _fail(str(exc), 4)
    except DomainError as exc:
        return _fail(str(exc), 2)
    except FracmechError as exc:
        return _fail(str(exc), 3)
    except OSError as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    raise SystemExit(main())
