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
    assert set(doc["tolerances"]) == {
        "rel_tol", "abs_tol", "event_tol", "max_steps", "initial_step",
    }
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


def test_period_overflow_names_the_non_finite_state(tmp_path):
    proc = run_cli(
        "period", "--alpha", "1.5", "--beta", "1.5", "--energy", "1e300",
        "--out", str(tmp_path / "p.json"), cwd=tmp_path,
    )
    assert proc.returncode == 3
    assert "non-finite energy" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "fewer than four turning points" not in proc.stderr


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
    proc = run_cli(
        "sweep", "--alphas", "1.0,1.5", "--betas", "1.5", "--energies", "1.0",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert "alpha" in proc.stderr


def test_sweep_workers_do_not_change_bytes(tmp_path):
    argv = ["sweep", "--alphas", "1.5,2.0", "--betas", "1.75", "--energies", "0.5,2.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*argv, "--jobs", "1", "--out", str(a), cwd=tmp_path).returncode == 0
    assert run_cli(*argv, "--jobs", "2", "--out", str(b), cwd=tmp_path).returncode == 0
    assert a.read_bytes() == b.read_bytes()


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
