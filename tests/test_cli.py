"""Black-box checks of the command-line front end via subprocess."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracmech


def child_env():
    """The inherited environment with the directory holding the imported
    ``fracmech`` package first on an absolute PYTHONPATH, so a child started
    in any working directory imports the same source tree as this process."""
    env = dict(os.environ)
    src = str(Path(fracmech.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(*argv, cwd, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "fracmech.cli", *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------- plumbing


def test_child_imports_the_package_under_test(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import fracmech; print(fracmech.__file__)"],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert Path(proc.stdout.strip()).resolve() == Path(fracmech.__file__).resolve()


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the package needs numpy alone; loading scipy at import time once
    # tripled the start-up cost of every CLI call
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, fracmech.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


README_COMMANDS = (
    "simulate --alpha 1.5 --d-alpha 1 --g2 1 --beta 1.5 --q0 0 --p0 1 --t1 10 --out traj.csv",
    "period --alpha 1.5 --beta 1.5",
    "hj --mass 1 --g2 1 --beta 2",
    "sweep --jobs 4 --out sweep.csv",
    "kepler --alpha 1.75",
)

# refuses every scipy import, runs each command line of argv through main() and prints the exit
# codes and the scipy modules loaded afterwards
REFUSE_SCIPY_AND_RUN = """
import sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r} (refused)")
        return None


sys.meta_path.insert(0, RefuseScipy())
from fracmech.cli import main

codes = [main(argv.split()) for argv in sys.argv[1:]]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_readme_commands_run_without_scipy(tmp_path):
    # a child interpreter, because pytest's IntegrationWarning filter loads
    # scipy.integrate into this process
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_SCIPY_AND_RUN, *README_COMMANDS],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []", proc.stdout + proc.stderr


def test_version_flag(tmp_path):
    proc = run_cli("--version", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.startswith("fracmech ")


def test_missing_alpha_is_usage_error(tmp_path):
    proc = run_cli(
        "simulate", "--g2", "1", "--beta", "2", "--q0", "1", "--t1", "1",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


def test_missing_span_end_is_usage_error(tmp_path):
    proc = run_cli(
        "simulate", "--mass", "1", "--g2", "1", "--beta", "2",
        "--q0", "1", "--p0", "0", cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "t1" in proc.stderr


# ----------------------------------------------------------------- simulate


def test_simulate_harmonic_drift_and_csv_contract(tmp_path):
    out = tmp_path / "sim.csv"
    proc = run_cli(
        "simulate", "--alpha", "2", "--mass", "1", "--g2", "1", "--beta", "2",
        "--q0", "1", "--p0", "0", "--t1", "10", "--rel-tol", "1e-11",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["t", "q1", "p1", "energy", "energy_drift_rel"]
    assert all(float(r[-1]) < 1e-10 for r in rows)
    # shortest-repr serialization must reparse to the identical float
    for r in rows[:: max(1, len(rows) // 20)]:
        assert all(repr(float(tok)) == tok for tok in r)


def test_simulate_planar_orbit_columns(tmp_path):
    out = tmp_path / "orbit.csv"
    proc = run_cli(
        "simulate", "--alpha", "1.5", "--d-alpha", "1",
        "--strength", "-1", "--degree", "-1",
        "--q0", "1,0", "--p0", "0,0.5", "--t1", "20", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["t", "q1", "q2", "p1", "p2", "energy", "energy_drift_rel"]
    assert len(rows) > 10


def test_identical_flags_give_identical_bytes(tmp_path):
    argv = [
        "simulate", "--alpha", "1.5", "--d-alpha", "1", "--g2", "1",
        "--beta", "1.5", "--q0", "0", "--p0", "1", "--t1", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*argv, "--out", str(a), cwd=tmp_path).returncode == 0
    assert run_cli(*argv, "--out", str(b), cwd=tmp_path).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_manifest_echo_reproduces_run(tmp_path):
    out = tmp_path / "first.csv"
    proc = run_cli(
        "simulate", "--alpha", "1.75", "--d-alpha", "1", "--g2", "1",
        "--beta", "1.5", "--q0", "0.3", "--p0", "0.9", "--t1", "4",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "first.csv.manifest.json").read_text())
    assert doc["tool"] == "fracmech"
    assert doc["subcommand"] == "simulate"
    assert doc["outputs"] == [str(out)]
    assert doc["duration_s"] > 0.0
    assert set(doc["tolerances"]) == {"rel_tol", "abs_tol", "max_steps"}
    # the parameter echo must rebuild the identical run
    p = doc["parameters"]
    again = tmp_path / "again.csv"
    proc2 = run_cli(
        "simulate",
        "--alpha", repr(p["alpha"]), "--d-alpha", repr(p["d_alpha"]),
        "--strength", repr(p["strength"]), "--degree", repr(p["degree"]),
        "--q0", ",".join(repr(v) for v in p["q0"]),
        "--p0", ",".join(repr(v) for v in p["p0"]),
        "--t0", repr(p["t0"]), "--t1", repr(p["t1"]),
        "--out", str(again), cwd=tmp_path,
    )
    assert proc2.returncode == 0
    assert again.read_bytes() == out.read_bytes()


# ------------------------------------------------------------------- period


def test_period_harmonic_report(tmp_path):
    out = tmp_path / "period.json"
    proc = run_cli(
        "period", "--mass", "1", "--g2", "1", "--beta", "2",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["closed_form"] == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-12)
    assert doc["max_pairwise_rel_diff"] < 1e-4


def test_period_routes_mutually_close(tmp_path):
    out = tmp_path / "period.json"
    proc = run_cli("period", "--alpha", "1.5", "--beta", "1.5", "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 0
    doc = json.loads(out.read_text())
    vals = [doc["closed_form"], doc["quadrature"], doc["ode_measured"]]
    for x in vals:
        for y in vals:
            assert abs(x - y) / vals[0] < 1e-5
    assert doc["max_pairwise_rel_diff"] < 1e-5


def test_period_zero_energy_rejected(tmp_path):
    proc = run_cli(
        "period", "--alpha", "1.5", "--beta", "1.5", "--energy", "0",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "energy" in proc.stderr


def test_period_infinite_energy_rejected_at_once(tmp_path):
    proc = run_cli(
        "period", "--alpha", "1.5", "--beta", "1.5", "--energy", "inf",
        cwd=tmp_path, timeout=10,
    )
    assert proc.returncode == 2
    assert "energy must be finite" in proc.stderr


def test_period_beyond_the_squared_norm_range_succeeds(tmp_path):
    # the turning point 1e200 squares past the float range; the energy
    # takes |q| itself, so all three routes run and agree
    proc = run_cli(
        "period", "--alpha", "1.5", "--beta", "1.5", "--energy", "1e300",
        "--out", str(tmp_path / "p.json"), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    result = json.loads((tmp_path / "p.json").read_text(encoding="utf-8"))
    assert result["ode_measured"] == pytest.approx(result["closed_form"], rel=1e-6)


def test_simulate_overflow_names_the_non_finite_state(tmp_path):
    proc = run_cli(
        "simulate", "--alpha", "1.5", "--d-alpha", "1", "--strength", "1",
        "--degree", "3", "--q0", "1e120", "--p0", "0", "--t1", "1",
        "--out", str(tmp_path / "t.csv"), cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert "non-finite energy inf at t = 0.0, y = " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_step_budget_names_the_state(tmp_path, capsys):
    import fracmech.cli as cli

    out = tmp_path / "t.csv"
    argv = ["simulate", "--alpha", "2", "--mass", "1", "--g2", "1", "--beta", "2",
            "--q0", "1", "--p0", "0", "--t1", "100", "--max-steps", "5", "--out", str(out)]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "exceeded 5 steps at t = " in err and ", y = [" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "given", [["--beta", "1.5", "--g2", "3", "--strength", "2"], ["--beta", "1.5", "--degree", "2"]]
)
def test_both_flags_of_a_potential_alias_are_a_usage_error(tmp_path, capsys, given):
    # an alias and its long form once overrode each other silently
    import fracmech.cli as cli

    out = tmp_path / "p.json"
    with pytest.raises(SystemExit) as exit_:
        cli.main(["period", "--alpha", "1.5", *given, "--skip-ode", "--out", str(out)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert given[-4] in err and given[-2] in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["period", "kepler"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_check_tolerance_must_be_finite_and_non_negative(tmp_path, command, tol):
    extra = ["--alpha", "1.5", "--beta", "1.5"] if command == "period" else ["--alpha", "1.75"]
    out = tmp_path / "out.json"
    proc = run_cli(command, *extra, "--check-tol", tol, "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "--check-tol" in proc.stderr and repr(tol) in proc.stderr
    assert not out.exists()


def test_period_check_tolerance_failure_is_numeric_exit(tmp_path):
    proc = run_cli(
        "period", "--alpha", "1.5", "--beta", "1.5", "--check-tol", "1e-15",
        "--out", str(tmp_path / "p.json"), cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert "disagree" in proc.stderr


def test_period_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# oscillator defaults\n"
        "alpha = 1.5\n"
        "beta = 1.5\n"
        "energy = 4\n"
        "skip_ode = true\n"  # underscore keys are accepted too
    )
    out_a = tmp_path / "a.json"
    proc = run_cli("period", "--config", str(cfg), "--out", str(out_a), cwd=tmp_path)
    assert proc.returncode == 0
    doc_a = json.loads(out_a.read_text())
    assert doc_a["ode_measured"] is None
    assert doc_a["closed_form"] == pytest.approx(5.794762296991742, rel=1e-10)

    out_b = tmp_path / "b.json"
    proc = run_cli(
        "period", "--config", str(cfg), "--energy", "1", "--out", str(out_b),
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    doc_b = json.loads(out_b.read_text())
    # explicit flag wins over the config value
    assert doc_b["closed_form"] == pytest.approx(3.6504714985585314, rel=1e-10)

    # an on/off key spelled false must not read as the truthy string 'false'
    cfg.write_text("alpha = 1.5\nbeta = 1.5\nskip_ode = false\n")
    out_c = tmp_path / "c.json"
    proc = run_cli("period", "--config", str(cfg), "--out", str(out_c), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out_c.read_text())["ode_measured"] is not None
    manifest = json.loads((tmp_path / "c.json.manifest.json").read_text())
    assert manifest["parameters"]["skip_ode"] is False


def test_config_bad_value_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = x\nbeta = 1.5\n")
    proc = run_cli("period", "--config", str(cfg), cwd=tmp_path)
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


def test_config_on_off_value_outside_the_vocabulary_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\nbeta = 1.5\nskip_ode = ture\n")
    out = tmp_path / "p.json"
    proc = run_cli("period", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "'skip_ode'" in proc.stderr and "'ture'" in proc.stderr
    assert not out.exists()


def test_config_unknown_key_is_usage_error(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\nbeta = 1.5\nenrgy = 4\n")
    out = tmp_path / "p.json"
    proc = run_cli("period", "--config", str(cfg), "--out", str(out), cwd=tmp_path)
    assert proc.returncode == 2
    assert "enrgy" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("key", ["func", "command", "config", "samples", "alphas", "event_tol"])
def test_config_keys_outside_the_subcommand_rejected(tmp_path, capsys, key):
    # in process: the key is refused before anything runs
    import fracmech.cli as cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 1.5\nbeta = 1.5\n{key} = 1\n")
    assert cli.main(["period", "--config", str(cfg), "--out", str(tmp_path / "p.json")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "p.json").exists()


def test_flag_wins_over_a_config_default_for_its_alias(tmp_path, capsys):
    # in process: --g2 and --strength name one quantity, so a config default for either loses to the flag
    import fracmech.cli as cli

    cfg = tmp_path / "s.cfg"
    cfg.write_text("strength = 2\n")
    argv = ["period", "--alpha", "1.5", "--beta", "1.5", "--g2", "3", "--config", str(cfg), "--skip-ode"]
    assert cli.main([*argv, "--out", str(tmp_path / "p.json")]) == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "p.json.manifest.json").read_text())["parameters"]["g2"] == 3.0


@pytest.mark.parametrize("text, keys", [("g2 = 3\nstrength = 2\n", ("g2", "strength")),
                                        ("beta = 1.5\ndegree = 2\n", ("beta", "degree"))])
def test_config_naming_both_names_of_one_quantity_is_usage_error(tmp_path, capsys, text, keys):
    import fracmech.cli as cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 1.5\n{text}")
    assert cli.main(["period", "--config", str(cfg), "--skip-ode", "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert all(repr(key) in err for key in keys)
    assert not (tmp_path / "p.json").exists()


def test_event_tol_flag_is_gone(capsys):
    # events resolve to the precision of t; there is no event tolerance to set
    import fracmech.cli as cli

    with pytest.raises(SystemExit) as exit_:
        cli.main(["simulate", "--alpha", "1.5", "--t1", "1", "--event-tol", "1e-12"])
    assert exit_.value.code == 2
    assert "--event-tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "period", "hj", "sweep", "kepler"])
def test_help_shows_the_integrator_defaults_and_initial_step_is_gone(tmp_path, capsys, command):
    # the tolerance flags default to IntegratorConfig's fields; no first-step option is left
    import fracmech.cli as cli

    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("(default: 1e-10)", "(default: 1e-12)", "(default: 1000000)"):
        assert shown in text
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--initial-step", "1"])
    assert exit_.value.code == 2
    assert "--initial-step" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("initial_step = 1\n")
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out.dat")]) == 2
    assert "unknown config key 'initial_step'" in capsys.readouterr().err
    assert not (tmp_path / "out.dat").exists()


def test_config_default_stays_with_its_subcommand():
    import fracmech.cli as cli

    parser, commands = cli._build_parser()
    commands["period"].set_defaults(out="mine.json", energy="4")
    assert parser.parse_args(["period"]).out == "mine.json"
    assert parser.parse_args(["period"]).energy == 4.0
    assert parser.parse_args(["hj"]).out == "hj_compare.csv"
    assert parser.parse_args(["hj"]).energy == 1.0
    assert parser.parse_args(["sweep"]).out == "sweep.csv"


def test_a_config_run_leaves_no_default_for_the_next_call_in_process(tmp_path, capsys):
    # main builds its parser once per process: neither a config that runs nor one whose value argparse
    # refuses may leave its defaults on it
    import fracmech.cli as cli

    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text("energy = 4\ng2 = 2\n")
    bad.write_text("g2 = 5\nenergy = x\n")
    argv = ["period", "--alpha", "1.5", "--beta", "1.5", "--skip-ode"]
    assert cli.main([*argv, "--config", str(good), "--out", str(tmp_path / "a.json")]) == 0, capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        cli.main([*argv, "--config", str(bad), "--out", str(tmp_path / "x.json")])
    assert exit_.value.code == 2
    assert cli.main([*argv, "--out", str(tmp_path / "b.json")]) == 0, capsys.readouterr().err
    first, second = (json.loads((tmp_path / f"{n}.json.manifest.json").read_text())["parameters"] for n in "ab")
    assert (first["energy"], first["g2"]) == (4.0, 2.0)
    assert (second["energy"], second["g2"]) == (1.0, 1.0)


# ----------------------------------------------------------------------- hj


def test_hj_harmonic_matches_integration(tmp_path):
    out = tmp_path / "hj.csv"
    proc = run_cli(
        "hj", "--mass", "1", "--g2", "1", "--beta", "2", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["t", "q_hj", "q_ode", "abs_diff"]
    assert len(rows) == 256
    amplitude = max(abs(float(r[1])) for r in rows)
    assert max(float(r[3]) for r in rows) < 1e-8 * amplitude


def test_hj_single_sample_is_origin_row(tmp_path):
    out = tmp_path / "hj.csv"
    proc = run_cli(
        "hj", "--alpha", "1.5", "--beta", "1.5", "--samples", "1",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    _, rows = read_csv(out)
    assert rows == [["0.0", "0.0", "0.0", "0.0"]]


def test_hj_degree_above_oscillator_range(tmp_path):
    proc = run_cli("hj", "--alpha", "1.75", "--beta", "2.5", cwd=tmp_path)
    assert proc.returncode == 2


# -------------------------------------------------------------------- sweep


def test_sweep_grid_rows_sorted_and_tight(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep", "--alphas", "2.0,1.5", "--betas", "1.5,2.0",
        "--energies", "1.0", "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["alpha", "beta", "energy", "T_closed", "T_quad", "T_ode", "rel_spread"]
    keys = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    # lexicographic grid order no matter how the flag listed the values
    assert keys == [(1.5, 1.5, 1.0), (1.5, 2.0, 1.0), (2.0, 1.5, 1.0), (2.0, 2.0, 1.0)]
    assert all(float(r[6]) < 1e-4 for r in rows)


def test_sweep_single_point(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_cli(
        "sweep", "--alphas", "1.5", "--betas", "1.5", "--energies", "2.0",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 0
    _, rows = read_csv(out)
    assert len(rows) == 1


def test_sweep_rejects_alpha_at_interval_edge(tmp_path):
    # and every other point outside the oscillator domain: each grid point is
    # checked before any runs, so no worker starts and no CSV is written
    cases = [
        ("--alphas", "1.0,1.5", "alpha"),
        ("--betas", "1.5,2.5", "degree"),
        ("--energies", "1.0,0.0", "energy"),
        ("--g2", "0", "strength"),
    ]
    for flag, value, word in cases:
        for jobs in ("1", "2"):
            grid = {"--alphas": "1.5", "--betas": "1.5", "--energies": "1.0", flag: value}
            argv = [tok for item in grid.items() for tok in item]
            cwd = tmp_path / f"{flag[2:]}-{jobs}"
            cwd.mkdir()
            proc = run_cli("sweep", *argv, "--jobs", jobs, cwd=cwd)
            assert proc.returncode == 2, (flag, jobs, proc.stderr)
            assert word in proc.stderr
            assert list(cwd.iterdir()) == []


def test_sweep_workers_do_not_change_bytes(tmp_path):
    argv = ["sweep", "--alphas", "1.5,2.0", "--betas", "1.75", "--energies", "0.5,2.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*argv, "--jobs", "1", "--out", str(a), cwd=tmp_path).returncode == 0
    assert run_cli(*argv, "--jobs", "2", "--out", str(b), cwd=tmp_path).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_config_file_equals_flags(tmp_path):
    flags = tmp_path / "flags.csv"
    proc = run_cli(
        "sweep", "--alphas", "2.0,1.5", "--betas", "1.75", "--energies", "2.0",
        "--d-alpha", "0.5", "--g2", "2", "--jobs", "1", "--out", str(flags),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "alphas = 2.0,1.5\nbetas = 1.75\nenergies = 2.0\n"
        "d-alpha = 0.5\ng2 = 2\njobs = 1\n"
    )
    config = tmp_path / "config.csv"
    proc = run_cli("sweep", "--config", str(cfg), "--out", str(config), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert config.read_bytes() == flags.read_bytes()
    echo = [
        json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["parameters"]
        for name in ("flags", "config")
    ]
    assert echo[0] == echo[1]
    assert echo[1]["jobs"] == 1 and echo[1]["g2"] == 2.0


def test_sweep_worker_count_is_bounded(tmp_path, monkeypatch):
    # in process, with a pool stand-in that records its size and maps
    # serially, so no worker process is ever started
    import fracmech.cli as cli

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    argv = ["sweep", "--alphas", "1.5", "--betas", "1.5", "--energies", "2.0",
            "--out", str(tmp_path / "one.csv")]
    assert cli.main([*argv, "--jobs", "64"]) == 0
    assert sizes == [1]
    assert cli.main([*argv, "--jobs", "0"]) == 2
    assert cli.main([*argv, "--jobs", "-3"]) == 2
    assert sizes == [1]


# ------------------------------------------------------------------- kepler


def test_kepler_classical_slope(tmp_path):
    out = tmp_path / "kep.csv"
    proc = run_cli(
        "kepler", "--mass", "1", "--rhos", "1,2", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    header, rows = read_csv(out)
    assert header == ["rho", "T_ratio_measured", "T_ratio_predicted", "rel_err"]
    assert len(rows) == 2
    doc = json.loads((tmp_path / "kep_summary.json").read_text())
    assert doc["fitted_slope"] == pytest.approx(1.5, abs=1e-3)
    assert doc["passed"] is True


def test_kepler_single_scale_reports_no_fit(tmp_path):
    out = tmp_path / "kep.csv"
    proc = run_cli(
        "kepler", "--alpha", "1.5", "--rhos", "1", "--out", str(out),
        cwd=tmp_path,
    )
    assert proc.returncode == 0
    assert "no fit" in proc.stdout
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(1.0, rel=1e-12)
    doc = json.loads((tmp_path / "kep_summary.json").read_text())
    assert doc["fitted_slope"] is None


def test_kepler_unbound_orbit_is_physics_exit(tmp_path):
    proc = run_cli(
        "kepler", "--mass", "1", "--p0", "0,2", "--rhos", "1,2", cwd=tmp_path,
    )
    assert proc.returncode == 4
    assert proc.stderr.strip() != ""


def test_kepler_circular_orbit_is_physics_exit(tmp_path, capsys):
    # on a circle q.p is rounding noise: this used to exit 0 with the ratio
    # 2.8427 against the predicted 2.8284
    import fracmech.cli as cli

    out = tmp_path / "k.csv"
    argv = ["kepler", "--alpha", "2", "--d-alpha", "0.5", "--p0", "0,1", "--rhos", "2", "--out", str(out)]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert "circular minimum for its angular momentum" in err and "Traceback" not in err
    assert not out.exists()


# --------------------------------------------------------- manifest echoes


ECHOES = {
    "simulate": (
        ["--alpha", "1.5", "--d-alpha", "2", "--g2", "1", "--beta", "1.5",
         "--q0", "0.25", "--qdot0", "1", "--t1", "1"],
        {"alpha": 1.5, "d_alpha": 2.0, "strength": 1.0, "degree": 1.5,
         "q0": [0.25], "p0": None, "qdot0": [1.0], "t0": 0.0, "t1": 1.0},
    ),
    "period": (
        ["--mass", "1", "--beta", "2", "--energy", "2", "--skip-ode"],
        {"alpha": 2.0, "d_alpha": 0.5, "g2": 1.0, "beta": 2.0, "energy": 2.0,
         "check_tol": 1e-4, "skip_ode": True},
    ),
    "hj": (
        ["--alpha", "1.5", "--strength", "2", "--degree", "1.5", "--samples", "3"],
        {"alpha": 1.5, "d_alpha": 1.0, "g2": 2.0, "beta": 1.5, "energy": 1.0,
         "samples": 3},
    ),
    "sweep": (
        ["--alphas", "2,1.5", "--betas", "2", "--energies", "2,1", "--d-alpha", "0.5"],
        {"alphas": [1.5, 2.0], "betas": [2.0], "energies": [1.0, 2.0],
         "d_alpha": 0.5, "g2": 1.0, "jobs": 1},
    ),
    "kepler": (
        ["--mass", "1", "--rhos", "2,1"],
        {"alpha": 2.0, "d_alpha": 0.5, "strength": -1.0, "q0": [1.0, 0.0],
         "p0": [0.0, 0.8], "rhos": [2.0, 1.0], "check_tol": 1e-3},
    ),
}


@pytest.mark.parametrize("command", sorted(ECHOES))
def test_manifest_parameters_echo_the_resolved_invocation(tmp_path, capsys, command):
    # in process: the exact echo, so a refactor of the command bodies
    # cannot drop, rename or re-resolve a key
    import fracmech.cli as cli

    flags, expected = ECHOES[command]
    out = tmp_path / "out.dat"
    assert cli.main([command, *flags, "--out", str(out)]) == 0, capsys.readouterr().err
    doc = json.loads((tmp_path / "out.dat.manifest.json").read_text())
    assert doc["parameters"] == expected


def test_kepler_check_tolerance_failure_still_writes_every_file(tmp_path):
    out = tmp_path / "kep.csv"
    proc = run_cli(
        "kepler", "--alpha", "1.75", "--rhos", "1,2", "--check-tol", "0",
        "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert "deviates" in proc.stderr
    _, rows = read_csv(out)
    assert len(rows) == 2
    summary = json.loads((tmp_path / "kep_summary.json").read_text())
    assert summary["passed"] is False and summary["check_tol"] == 0.0
    manifest = json.loads((tmp_path / "kep.csv.manifest.json").read_text())
    assert manifest["outputs"] == [str(out), str(tmp_path / "kep_summary.json")]


# ---------------------------------------------------- overflowing inputs


def test_simulate_power_overflow_is_usage_exit(tmp_path):
    proc = run_cli(
        "simulate", "--alpha", "1.0000001", "--d-alpha", "1e-3", "--strength", "1",
        "--degree", "2", "--q0", "0", "--qdot0", "10", "--t1", "1",
        "--out", str(tmp_path / "t.csv"), cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "overflows" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_underflowed_launch_is_usage_exit(tmp_path):
    # V(1e-300) = 1e-450 underflows to 0, so E = 0 is not the launch's energy;
    # the run once exited 0 with 79,838 samples and a drift of 2.6e285
    out = tmp_path / "t.csv"
    proc = run_cli(
        "simulate", "--alpha", "1.5", "--d-alpha", "1", "--strength", "1", "--degree", "1.5",
        "--q0", "1e-300", "--p0", "0", "--t1", "1", "--out", str(out), cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "underflows: q0 = [1.e-300], p0 = [0.]" in proc.stderr
    assert not out.exists()


def test_kepler_overflowing_energy_is_usage_exit(tmp_path):
    proc = run_cli(
        "kepler", "--alpha", "1.75", "--p0", "0,1e300", "--rhos", "1,2",
        "--out", str(tmp_path / "k.csv"), cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "non-finite initial energy inf" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
