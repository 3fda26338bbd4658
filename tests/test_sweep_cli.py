"""Batch runners and the command-line front end.

The physics behind each runner is exercised at depth in the per-module
suites; here the focus is orchestration: config handling, fit plumbing,
verdict flags, file layout, determinism, and exit codes.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

import plaqising
from plaqising import cli
from plaqising.cli import (
    EXIT_BAD_INPUT,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    SIGN_CONVENTION,
    main,
)
from plaqising.errors import InvalidSpec
from plaqising.sweep import (
    CouplingSweepConfig,
    CritCorrConfig,
    ExponentsConfig,
    GapScalingConfig,
    config_digest,
    fit_powerlaw,
    run_coupling_sweep,
    run_crit_corr,
    run_exponents,
    run_gap_scaling,
)

# small-but-honest exponent config: 512-site chains, three points per branch
SMALL_EXPONENTS = ExponentsConfig(
    length=512,
    ordered_grid=(0.80, 0.89, 0.98),
    separation=100,
    disordered_grid=(1.02, 1.13, 1.25),
    string_length=150,
)


# ----------------------------------------------------------------------
# fit and digest helpers
# ----------------------------------------------------------------------
def test_powerlaw_fit_recovers_exact_data():
    x = np.array([2.0, 4.0, 8.0, 16.0])
    fit = fit_powerlaw(x, 3.0 * x**-2)
    assert fit["slope"] == pytest.approx(-2.0, abs=1e-12)
    assert fit["intercept"] == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit["max_abs_residual"] < 1e-12
    assert fit["n_points"] == 4


def test_powerlaw_fit_rejects_nonpositive_data():
    with pytest.raises(InvalidSpec):
        fit_powerlaw([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InvalidSpec):
        fit_powerlaw([1.0, 2.0], [1.0, -0.5])


def test_config_digest_is_stable_and_sensitive():
    a = CritCorrConfig(length=512)
    b = CritCorrConfig(length=512)
    c = CritCorrConfig(length=1024)
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64
    assert set(config_digest(a)) <= set("0123456789abcdef")


# ----------------------------------------------------------------------
# coupling sweep
# ----------------------------------------------------------------------
def test_coupling_sweep_ed_route_3x3():
    cfg = CouplingSweepConfig(rows=3, cols=3, steps=5, string_steps=1)
    rows, meta = run_coupling_sweep(cfg)
    assert meta["passed"]
    assert meta["phi1_monotone_nonincreasing"]
    assert meta["phi2_monotone_nondecreasing"]
    assert meta["endpoints_exact"]
    phi1 = [r["phi1"] for r in rows]
    phi2 = [r["phi2"] for r in rows]
    assert phi1[0] == pytest.approx(1.0, abs=1e-8)
    assert phi1[-1] == pytest.approx(0.0, abs=1e-8)
    assert phi2[0] == pytest.approx(0.0, abs=1e-8)
    assert phi2[-1] == pytest.approx(1.0, abs=1e-8)
    # the square torus is symmetric under g <-> h with the two string
    # types exchanged, so one profile is the mirror of the other
    for a, b in zip(phi1, reversed(phi2)):
        assert a == pytest.approx(b, abs=1e-10)
    # endpoint gaps close exactly: 2h at g = 0, 2g at h = 0
    assert rows[0]["gap"] == pytest.approx(2.0, abs=1e-12)
    assert rows[-1]["gap"] == pytest.approx(2.0, abs=1e-12)
    assert all(math.isfinite(r["energy"]) for r in rows)


def test_coupling_sweep_dual_route_matches_ed():
    kw = dict(rows=3, cols=3, steps=5, string_steps=1)
    rows_ed, _ = run_coupling_sweep(CouplingSweepConfig(**kw))
    rows_dual, meta = run_coupling_sweep(CouplingSweepConfig(route="dual", **kw))
    assert meta["passed"]
    for a, b in zip(rows_ed, rows_dual):
        assert b["phi1"] == pytest.approx(a["phi1"], abs=1e-9)
        assert b["phi2"] == pytest.approx(a["phi2"], abs=1e-9)
        assert math.isnan(b["energy"])  # no state is built on this route


def test_default_sweep_routes_agree_at_every_step():
    # the default sweep (4x4 torus, 11 steps): the ED route, measured in
    # the loop sector's Hadamard frame, against the dual chains
    rows_ed, _ = run_coupling_sweep(CouplingSweepConfig())
    rows_dual, _ = run_coupling_sweep(CouplingSweepConfig(route="dual"))
    assert len(rows_ed) == len(rows_dual) == 11
    for a, b in zip(rows_ed, rows_dual):
        assert abs(a["phi1"] - b["phi1"]) <= 1e-12, a["step"]
        assert abs(a["phi2"] - b["phi2"]) <= 1e-12, a["step"]


def test_coupling_sweep_validation():
    with pytest.raises(InvalidSpec):
        run_coupling_sweep(CouplingSweepConfig(steps=1))
    with pytest.raises(InvalidSpec):
        run_coupling_sweep(CouplingSweepConfig(route="tensor"))


# ----------------------------------------------------------------------
# gap scaling
# ----------------------------------------------------------------------
def test_gap_scaling_small_sizes():
    cfg = GapScalingConfig(sizes=(8, 16, 32), ed_sizes=(3,))
    rows, meta = run_gap_scaling(cfg)
    assert meta["passed"]
    assert meta["slope_in_band"]
    assert meta["fit"]["slope"] == pytest.approx(-1.0, abs=cfg.slope_band)
    gaps = [r["gap"] for r in rows]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    (check,) = meta["ed_checks"]
    assert check["size"] == 3
    assert check["abs_error"] < 1e-12
    assert (check["method"], check["iterations"]) == ("dense", 0)
    assert meta["ed_checks_ok"]


def test_gap_scaling_lanczos_check_reports_its_solver():
    # 4x4: one 4096-state loop sector per translation orbit (6 of 16), two
    # levels each by Lanczos
    _, meta = run_gap_scaling(GapScalingConfig(sizes=(8, 16, 32), ed_sizes=(4,)))
    (check,) = meta["ed_checks"]
    assert check["abs_error"] < 1e-12
    assert check["method"] == "lanczos"
    assert (check["blocks"], check["sectors"]) == (6, 16)
    assert 6 * 2 <= check["iterations"] <= 6 * 220
    assert meta["passed"]


def test_gap_scaling_rejects_tiny_tori():
    with pytest.raises(InvalidSpec):
        run_gap_scaling(GapScalingConfig(sizes=(2, 4)))
    with pytest.raises(InvalidSpec):
        run_gap_scaling(GapScalingConfig(sizes=(8,), ed_sizes=(2,)))


# ----------------------------------------------------------------------
# critical correlators
# ----------------------------------------------------------------------
def test_crit_corr_small_ring():
    rows, meta = run_crit_corr(CritCorrConfig(length=1024, n_max=6))
    assert meta["passed"]
    assert meta["supported_constant"] == "4/pi^2"
    assert meta["worst_connected_error"] < 1e-5
    assert meta["constant_abs_error_vs_4_over_pi2"] < 1e-5
    assert [r["n"] for r in rows] == list(range(1, 7))
    for r in rows:
        assert r["reference"] == pytest.approx(
            4.0 / (math.pi**2 * (4 * r["n"] ** 2 - 1)), rel=1e-14
        )
        assert r["abs_error"] == pytest.approx(
            abs(r["xx_connected"] - r["reference"]), abs=1e-15
        )


def test_crit_corr_values_are_scale_free():
    # correlators are pure numbers: the chain energy scale cancels
    rows_1, _ = run_crit_corr(CritCorrConfig(length=256, n_max=3, scale=1.0))
    rows_h, _ = run_crit_corr(CritCorrConfig(length=256, n_max=3, scale=0.37))
    for a, b in zip(rows_1, rows_h):
        assert b["xx_connected"] == pytest.approx(a["xx_connected"], abs=1e-12)


# ----------------------------------------------------------------------
# order-parameter exponents
# ----------------------------------------------------------------------
def test_exponents_small_chains():
    rows, meta = run_exponents(SMALL_EXPONENTS)
    assert meta["passed"]
    assert meta["beta1"] == pytest.approx(0.25, abs=SMALL_EXPONENTS.beta1_tol)
    assert meta["beta2"] == pytest.approx(0.125, abs=SMALL_EXPONENTS.beta2_tol)
    assert meta["beta1_fit"]["n_points"] == 3
    assert meta["beta2_fit"]["n_points"] == 3
    ordered = [r for r in rows if r["branch"] == "ordered"]
    disordered = [r for r in rows if r["branch"] == "disordered"]
    assert len(ordered) == len(disordered) == 3
    assert all(0 < r["value"] < 1 for r in rows)
    assert all(r["abscissa"] > 0 for r in rows)
    # report-only closed-form checks: present and finite, outside the verdict
    for key in ("beta1_closed_form_max_rel_dev", "beta2_closed_form_max_rel_dev",
                "beta1_exact_variable", "beta2_exact_variable"):
        assert math.isfinite(meta[key]), key
    assert 0 <= meta["beta1_closed_form_max_rel_dev"] < 1e-3
    assert 0 <= meta["beta2_closed_form_max_rel_dev"] < 1e-3
    assert meta["beta1_exact_variable"] == pytest.approx(0.25, abs=1e-3)
    assert meta["beta2_exact_variable"] == pytest.approx(0.125, abs=1e-3)


def test_exponents_validation():
    with pytest.raises(InvalidSpec):
        run_exponents(ExponentsConfig(length=512, separation=256))
    with pytest.raises(InvalidSpec):
        run_exponents(ExponentsConfig(length=512, separation=100,
                                      string_length=513))


@pytest.mark.parametrize("argv, ini, field", [
    (["--separation", "0"], "", "separation"),
    (["--string-length", "0"], "", "string_length"),
    ([], "ordered-grid = 1.2, 1.3", "ordered_grid"),
    ([], "ordered-grid = 0.8", "ordered_grid"),
    ([], "disordered-grid = 0.9, 1.1", "disordered_grid"),
    ([], "disordered-grid = 1.1, 1.1", "disordered_grid"),
], ids=["no-separation", "no-string", "ordered-above-1", "one-ordered-point",
        "disordered-at-or-below-1", "one-distinct-disordered-point"])
def test_cli_exponents_checks_every_range_before_any_solve(tmp_path, capsys, monkeypatch,
                                                           argv, ini, field):
    def never(*args, **kwargs):
        raise AssertionError("a chain was solved")

    monkeypatch.setattr(plaqising.sweep, "bdg_solve", never)
    config = tmp_path / "exponents.ini"
    config.write_text(f"[exponents]\n{ini}\n")
    out = tmp_path / "out"
    assert main(["exponents", "--config", str(config), "--length", "1536", *argv,
                 "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{field} = " in err
    assert not out.exists()


@pytest.mark.parametrize("sizes", [["8"], ["8", "8"]], ids=["one-size", "one-distinct-size"])
def test_cli_gap_scaling_checks_sizes_before_any_solve(tmp_path, capsys, monkeypatch, sizes):
    def never(*args, **kwargs):
        raise AssertionError("a torus gap was solved")

    monkeypatch.setattr(plaqising.sweep, "dual_lattice_gap", never)
    out = tmp_path / "out"
    assert main(["gap-scaling", "--sizes", *sizes, "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: sizes = ")
    assert not out.exists()


# ----------------------------------------------------------------------
# command line: exit codes and file layout
# ----------------------------------------------------------------------
def _read_sidecar(out_dir: Path, command: str) -> dict:
    return json.loads((out_dir / f"{command}.meta.json").read_text())


def test_cli_duality_check_sector_resolved(tmp_path, capsys):
    code = main(["duality-check", "--rows", "3", "--cols", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "duality-check: ok" in capsys.readouterr().out
    data = (tmp_path / "duality-check.csv").read_text()
    assert data.startswith("# plaqising duality-check\n")
    assert f"# {SIGN_CONVENTION}" in data
    assert "# config sha256: " in data
    side = _read_sidecar(tmp_path, "duality-check")
    assert side["command"] == "duality-check"
    assert side["data_file"] == "duality-check.csv"
    assert side["results"]["passed"] is True
    assert len(side["config_sha256"]) == 64
    # sidecar timestamp is real ISO-8601
    from datetime import datetime

    datetime.fromisoformat(side["created_utc"])


def test_cli_literal_duality_check_fails(tmp_path):
    code = main(["duality-check", "--rows", "3", "--cols", "3", "--literal",
                 "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    side = _read_sidecar(tmp_path, "duality-check")
    assert side["results"]["passed"] is False
    assert side["results"]["notes"]
    assert side["config"]["sector_resolved"] is False


def test_cli_bad_input_exit_codes(tmp_path, capsys):
    # degenerate torus: plaquette corners coincide below 3x3
    assert main(["duality-check", "--rows", "2", "--cols", "3",
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    # config file that does not exist
    assert main(["crit-corr", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    # unknown key inside a section
    bad = tmp_path / "bad.ini"
    bad.write_text("[crit-corr]\nlenght = 512\n")
    assert main(["crit-corr", "--config", str(bad),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert "lenght" in capsys.readouterr().err


@pytest.mark.parametrize("argv,field", [
    (["gap-scaling", "--g", "nan", "--h", "1"], "g"),
    (["gap-scaling", "--g", "inf", "--h", "1"], "g"),
    (["crit-corr", "--tol", "nan"], "tol"),
    (["exponents", "--config", "{ini}"], "ordered_grid"),
    (["duality-check", "--tol", "-1"], "tol"),
    (["gap-scaling", "--tol", "-1", "--ed-sizes", "3"], "ed_tol"),
    (["crit-corr", "--tol", "-1"], "tol"),
], ids=["g-nan", "g-inf", "tol-nan", "ini-grid-nan", "check-tol-negative",
        "gap-tol-negative", "corr-tol-negative"])
def test_cli_non_finite_input_is_bad_input(tmp_path, capsys, argv, field):
    # a nan, inf or negative value must not reach a solver and come back as
    # a failed check
    ini = tmp_path / "run.ini"
    ini.write_text("[exponents]\nordered-grid = 0.8, nan\n")
    out = tmp_path / "out"
    argv = [str(ini) if a == "{ini}" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("argv,ini", [
    (["crit-corr", "--n-max", "0"], ""),
    (["gap-scaling", "--config", "{ini}"], "[gap-scaling]\nsizes =\n"),
    (["gap-scaling", "--sizes", "8"], ""),
    (["gap-scaling", "--sizes", "8", "8"], ""),
    (["exponents", "--config", "{ini}", "--length", "512", "--separation",
      "100", "--string-length", "150"], "[exponents]\nordered-grid = 0.9\n"),
], ids=["n-max-0", "ini-no-sizes", "one-size", "one-distinct-size",
        "ini-one-point-grid"])
def test_cli_too_few_points_is_bad_input(tmp_path, capsys, argv, ini):
    # an empty or one-point input is bad input: no traceback, no physics
    # verdict from a slope through one point, and no data file
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    argv = [str(path) if a == "{ini}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("route", ["ed", "dual"])
@pytest.mark.parametrize("argv, ring", [
    (["--rows", "3", "--cols", "3"], 3),
    (["--string-steps", "3"], 4),
    (["--plaquettes", "4"], 4),
    (["--plaquettes", "5"], 4),
    (["--plaquettes", "0"], 4),
], ids=["3x3-default-strings", "sites-cover-the-loop", "plaquettes-cover-the-ring",
        "plaquettes-wrap", "no-plaquettes"])
def test_cli_sweep_strings_that_cover_a_loop_are_bad_input(tmp_path, capsys, monkeypatch,
                                                           route, argv, ring):
    # a string of lcm(rows, cols) sites is the conserved loop, and a longer
    # one wraps: bad input on both routes before any point is solved, not a
    # physics verdict (exit 3) or a measured wrapped product; an empty
    # plaquette string once came after the first ground-state solve
    def never(*args):
        raise AssertionError("a sweep point was solved")

    monkeypatch.setattr(plaqising.sweep, "_sweep_point", never)
    out = tmp_path / "out"
    assert main(["sweep", "--route", route, *argv, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"ring length {ring}" in err
    assert not out.exists()


def test_cli_crit_corr_separation_must_stay_inside_the_ring(tmp_path, capsys):
    for n_max in ("30", "20"):
        out = tmp_path / n_max
        assert main(["crit-corr", "--length", "20", "--n-max", n_max,
                     "--out", str(out)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert f"n_max = {n_max}" in err and "length = 20" in err
        assert not out.exists()
    # the longest separation on a 20-site ring is 19 (a physics verdict
    # there is no input error)
    assert main(["crit-corr", "--length", "20", "--n-max", "19",
                 "--out", str(tmp_path / "19")]) != EXIT_BAD_INPUT
    lines = (tmp_path / "19" / "crit-corr.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines if not ln.startswith("#")][-1] == "19"


@pytest.mark.parametrize("argv", [
    ["sweep", "--rows", "abc"],
    ["sweep", "--route", "foo"],
    ["exponents", "--length", "1.5"],
    ["no-such-command"],
], ids=["int-flag-text", "route-choice", "int-flag-float", "unknown-command"])
def test_cli_malformed_flag_is_bad_input(tmp_path, capsys, argv):
    # a flag value that does not read, or a choice outside its list, is bad
    # input (exit 1), as the same value in an INI file is; exit 2 stays
    # reserved for numerical failure
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_help_exits_zero():
    with pytest.raises(SystemExit) as done:
        main(["sweep", "--help"])
    assert done.value.code == 0


def test_cli_has_no_threads_option(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "--threads" not in capsys.readouterr().out
    ini = tmp_path / "threads.ini"
    ini.write_text("[sweep]\nthreads = 2\n")
    assert main(["sweep", "--config", str(ini),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert "threads" in capsys.readouterr().err


def test_cli_sweep_has_no_bias_option(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert "--bias" not in capsys.readouterr().out
    ini = tmp_path / "bias.ini"
    ini.write_text("[sweep]\nbias = 0.1\n")
    assert main(["sweep", "--config", str(ini),
                 "--out", str(tmp_path)]) == EXIT_BAD_INPUT
    assert "bias" in capsys.readouterr().err


def test_cli_reruns_are_byte_identical(tmp_path):
    args = ["duality-check", "--rows", "3", "--cols", "3", "--g", "0.7",
            "--h", "1.3"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(d1)]) == EXIT_OK
    assert main(args + ["--out", str(d2)]) == EXIT_OK
    assert (d1 / "duality-check.csv").read_bytes() == \
        (d2 / "duality-check.csv").read_bytes()
    m1 = _read_sidecar(d1, "duality-check")
    m2 = _read_sidecar(d2, "duality-check")
    for volatile in ("created_utc", "run"):
        m1.pop(volatile)
        m2.pop(volatile)
    assert m1 == m2


def test_cli_values_hold_across_blas_thread_counts(tmp_path):
    # byte-identity holds per BLAS thread count only: one BLAS thread against
    # the default reorders sums, so across them the cells agree to a bound
    # (1e-12 relative, 1e-12 absolute floor for the near-zero deviation)
    src = str(Path(plaqising.__file__).resolve().parents[1])
    argv = ["duality-check", "--rows", "4", "--cols", "3", "--g", "0.95",
            "--h", "1.07"]
    runs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = src
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        subprocess.run([sys.executable, "-m", "plaqising.cli", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        runs.append((out / "duality-check.csv").read_text().splitlines())
    one, default = runs
    assert len(one) == len(default)
    for a, b in zip(one, default):
        if a.startswith("#"):
            assert a == b
            continue
        for x, y in zip(a.split(","), b.split(","), strict=True):
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                assert x == y
                continue
            assert abs(fx - fy) <= 1e-12 * abs(fy) + 1e-12, (x, y)


def test_cli_ed_sweep_is_independent_of_the_blas_thread_count(tmp_path):
    # the ED-route strings are NumPy reductions over the state's loop sector,
    # not BLAS dots, whose sums one BLAS thread and two ordered differently
    # (14 phi cells by up to 6.7e-16 with a dot over all 2^16 labels)
    src = str(Path(plaqising.__file__).resolve().parents[1])
    data = {}
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "plaqising.cli", "sweep", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        data[threads] = (out / "sweep.csv").read_bytes()
    assert data["1"] == data["2"]


def test_cli_values_are_unchanged_by_the_blas_idle_spin(tmp_path):
    # plaqising sets OPENBLAS_THREAD_TIMEOUT to 24 before numpy loads, and a
    # value already set wins; it changes only when idle BLAS threads sleep,
    # so the data files of the default and of OpenBLAS's own 28 are identical
    src = str(Path(plaqising.__file__).resolve().parents[1])
    ini = tmp_path / "small.ini"
    ini.write_text("[exponents]\nlength = 512\nseparation = 100\n"
                   "string-length = 150\nordered-grid = 0.80, 0.89, 0.98\n"
                   "disordered-grid = 1.02, 1.13, 1.25\n")
    argvs = [["duality-check", "--rows", "4", "--cols", "3", "--g", "0.95",
              "--h", "1.07"], ["exponents", "--config", str(ini)]]
    data = {}
    for timeout in (None, "28"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = src
        if timeout:
            env["OPENBLAS_THREAD_TIMEOUT"] = timeout
        out = tmp_path / f"timeout-{timeout or 'default'}"
        for argv in argvs:
            subprocess.run([sys.executable, "-m", "plaqising.cli", *argv, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            blas = _read_sidecar(out, argv[0])["run"]["blas"]
            assert blas and {b["thread_timeout"] for b in blas} == {timeout or "24"}
            data[timeout, argv[0]] = (out / f"{argv[0]}.csv").read_bytes()
    for argv in argvs:
        assert data[None, argv[0]] == data["28", argv[0]], argv[0]


def test_cli_sidecar_records_the_run(tmp_path, monkeypatch):
    assert main(["crit-corr", "--length", "512", "--n-max", "3",
                 "--out", str(tmp_path)]) == EXIT_OK
    run = _read_sidecar(tmp_path, "crit-corr")["run"]
    assert set(run) == {"peak_rss_mb", "numpy", "scipy", "blas"}
    assert run["peak_rss_mb"] > 0
    assert (run["numpy"], run["scipy"]) == (np.__version__, scipy.__version__)
    # each loaded OpenBLAS, read once per process; the idle-spin exponent is
    # unknown (None) where numpy loaded before plaqising
    for lib in run["blas"]:
        assert set(lib) == {"library", "config", "threads", "thread_timeout"}
        assert "openblas" in lib["library"] and lib["config"].startswith("OpenBLAS")
        assert lib["threads"] >= 1
        assert lib["thread_timeout"] == plaqising._blas_thread_timeout
    assert cli._blas() is cli._blas()

    def no_proc(self, *args, **kwargs):
        raise OSError("no /proc")

    monkeypatch.setattr(Path, "read_text", no_proc)
    assert cli._blas.__wrapped__() == ()


def test_cli_json_output(tmp_path):
    code = main(["crit-corr", "--length", "512", "--n-max", "3",
                 "--format", "json", "--out", str(tmp_path)])
    assert code == EXIT_OK
    payload = json.loads((tmp_path / "crit-corr.json").read_text())
    assert len(payload["comments"]) == 3
    assert len(payload["rows"]) == 3
    assert set(payload["rows"][0]) == {"n", "xx_connected", "reference",
                                       "abs_error"}
    side = _read_sidecar(tmp_path, "crit-corr")
    assert side["data_file"] == "crit-corr.json"
    assert side["results"]["supported_constant"] == "4/pi^2"


def test_cli_ini_defaults_and_flag_override(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[crit-corr]\nlength = 512\nn-max = 3\n")
    assert main(["crit-corr", "--config", str(ini),
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    side = _read_sidecar(tmp_path / "a", "crit-corr")
    assert side["config"]["length"] == 512
    assert side["config"]["n_max"] == 3
    # an explicit flag beats the INI value; untouched keys keep the INI value
    assert main(["crit-corr", "--config", str(ini), "--n-max", "2",
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    side = _read_sidecar(tmp_path / "b", "crit-corr")
    assert side["config"]["length"] == 512
    assert side["config"]["n_max"] == 2


def test_cli_ini_tuple_and_float_grids(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[gap-scaling]\n"
        "sizes = 8, 16, 32\n"
        "ed-sizes = 3\n"
        "[exponents]\n"
        "length = 512\n"
        "ordered-grid = 0.80, 0.89, 0.98\n"
        "separation = 100\n"
        "disordered-grid = 1.02 1.13 1.25\n"
        "string-length = 150\n"
    )
    assert main(["gap-scaling", "--config", str(ini),
                 "--out", str(tmp_path)]) == EXIT_OK
    side = _read_sidecar(tmp_path, "gap-scaling")
    assert side["config"]["sizes"] == [8, 16, 32]
    assert side["config"]["ed_sizes"] == [3]
    assert side["results"]["passed"] is True
    assert main(["exponents", "--config", str(ini),
                 "--out", str(tmp_path)]) == EXIT_OK
    side = _read_sidecar(tmp_path, "exponents")
    assert side["config"]["ordered_grid"] == [0.80, 0.89, 0.98]
    assert side["config"]["disordered_grid"] == [1.02, 1.13, 1.25]
    assert abs(side["results"]["beta1"] - 0.25) <= 0.03
    assert abs(side["results"]["beta2"] - 0.125) <= 0.02
    assert 0 < side["results"]["open_orthogonality_max"] <= 1e-8


def test_cli_ini_bool_switches_literal_mode(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[duality-check]\nsector-resolved = false\n")
    code = main(["duality-check", "--config", str(ini), "--out", str(tmp_path)])
    assert code == EXIT_CHECK_FAILED
    assert _read_sidecar(tmp_path, "duality-check")["config"][
        "sector_resolved"] is False


def test_cli_ini_misspelled_bool_is_bad_input(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[duality-check]\nsector-resolved = ture\n")
    code = main(["duality-check", "--config", str(ini), "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "ture" in capsys.readouterr().err
    assert not (tmp_path / "duality-check.csv").exists()


def test_cli_ini_misspelled_boundary_is_bad_input(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[duality-check]\nboundary = periodc\n")
    code = main(["duality-check", "--config", str(ini), "--out", str(tmp_path)])
    assert code == EXIT_BAD_INPUT
    assert "boundary" in capsys.readouterr().err
    assert not (tmp_path / "duality-check.csv").exists()


def test_cli_sweep_writes_parseable_csv(tmp_path):
    code = main(["sweep", "--rows", "3", "--cols", "3", "--steps", "3",
                 "--string-steps", "1", "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    assert len(comments) == 3
    assert body[0] == "step,g,h,phi1,phi2,gap,energy"
    assert len(body) == 1 + 3
    first = body[1].split(",")
    assert first[0] == "0"
    assert float(first[3]) == pytest.approx(1.0, abs=1e-8)


def test_cli_gap_scaling_list_flags(tmp_path):
    code = main(["gap-scaling", "--sizes", "8", "16", "32",
                 "--ed-sizes", "3", "--out", str(tmp_path)])
    assert code == EXIT_OK
    side = _read_sidecar(tmp_path, "gap-scaling")
    assert side["config"]["sizes"] == [8, 16, 32]
    assert side["results"]["slope_in_band"] is True
    assert side["results"]["ed_checks_ok"] is True


@pytest.mark.parametrize("ini", [
    "rows = 3\n",
    "[sweep]\nrows = 3\nrows = 4\n",
    "[sweep]\nrows\n",
], ids=["no-section-header", "duplicate-key", "key-without-equals"])
def test_cli_malformed_ini_file_is_bad_input(tmp_path, capsys, ini):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(path) in err
    assert not out.exists()


@pytest.mark.parametrize("command,ini", [
    ("crit-corr", "[DEFAULT]\nrows = 3\n[crit-corr]\nlength = 64\n"),
    ("sweep", "[DEFAULT]\nrows = 3\n"),
    ("sweep", "[DEFAULT]\nrows = 3\n[sweep]\ncols = 3\n"),
], ids=["beside-another-section", "no-own-section", "beside-own-section"])
def test_cli_ini_default_section_is_bad_input(tmp_path, capsys, command, ini):
    # configparser copies [DEFAULT] keys into every section, so they would
    # turn up as unknown keys, be merged, or be ignored, depending on the file
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: [DEFAULT]")
    assert not out.exists()


def test_cli_empty_ini_default_section_is_allowed(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[DEFAULT]\n[crit-corr]\nlength = 64\n")
    args = cli._build_parser().parse_args(["crit-corr", "--config", str(ini)])
    assert cli._resolve_config(args)[0].length == 64


@pytest.mark.parametrize("argv,ini,field", [
    (["sweep", "--config", "{ini}"], "[sweep]\nrows = 3.0\n", "rows"),
    (["sweep", "--rows", "3.0"], "", "rows"),
    (["gap-scaling", "--config", "{ini}"], "[gap-scaling]\nsizes = 8, x\n", "sizes"),
    (["gap-scaling", "--sizes", "8", "x"], "", "sizes"),
], ids=["ini-int", "flag-int", "ini-tuple", "flag-tuple"])
def test_cli_unreadable_value_names_its_field(tmp_path, capsys, argv, ini, field):
    path = tmp_path / "run.ini"
    path.write_text(ini)
    out = tmp_path / "out"
    argv = [str(path) if a == "{ini}" else a for a in argv]
    assert main(argv + ["--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith(f"error: {field}: ")
    assert not out.exists()


def test_cli_unknown_ini_key_is_invalid_spec(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[crit-corr]\nlenght = 512\n")
    args = cli._build_parser().parse_args(["crit-corr", "--config", str(ini)])
    with pytest.raises(InvalidSpec, match="lenght"):
        cli._resolve_config(args)


def test_cli_option_strings_per_subcommand():
    common = {"-h", "--help", "--config", "--out", "--format"}
    expected = {
        "sweep": {"--rows", "--cols", "--steps", "--string-steps",
                  "--plaquettes", "--route"},
        "gap-scaling": {"--sizes", "--g", "--h", "--ed-sizes", "--tol"},
        "crit-corr": {"--length", "--n-max", "--tol"},
        "exponents": {"--length", "--separation", "--string-length"},
        "duality-check": {"--rows", "--cols", "--g", "--h", "--boundary",
                          "--literal", "--tol"},
    }
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(subparsers) == set(expected)
    for command, parser in subparsers.items():
        flags = {s for action in parser._actions for s in action.option_strings}
        assert flags == common | expected[command], command


# a text each flag can take that differs from its field's default
_FLAG_SAMPLES = {"int": ["5"], "float": ["0.25"], "tuple[int, ...]": ["8", "16"],
                 "route": ["dual"], "boundary": ["open"]}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, flags) in cli._FLAGS.items() for flag in flags])
def test_cli_flag_and_ini_key_give_the_same_config(tmp_path, command, flag):
    name = cli._FLAGS[command][1][flag]
    annotation = cli._field_types(command)[name]
    if flag in cli._SWITCHES:
        argv, text = [flag], cli._SWITCHES[flag]
    else:
        words = _FLAG_SAMPLES.get(name) or _FLAG_SAMPLES[annotation]
        argv, text = [flag, *words], ", ".join(words)
    ini = tmp_path / "run.ini"
    ini.write_text(f"[{command}]\n{name.replace('_', '-')} = {text}\n")
    parse = cli._build_parser().parse_args
    from_flag, _ = cli._resolve_config(parse([command, *argv]))
    from_ini, _ = cli._resolve_config(parse([command, "--config", str(ini)]))
    default, _ = cli._resolve_config(parse([command]))
    assert from_flag == from_ini
    assert config_digest(from_flag) == config_digest(from_ini)
    changed = {k for k, v in vars(from_flag).items() if getattr(default, k) != v}
    assert changed == {name}
