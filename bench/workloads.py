"""Workloads: the CLI invocations of one pass, made from a seed, and the
oracles that check a pass's output files.

Each workload is a fixed list of ``plaqising`` CLI invocations.  The seed
moves couplings (and, where no coupling grid is an input, the string anchors)
inside fixed windows; the number of points and every size stay the same, so
each seed does the same amount of work.  The program sees only the generated
arguments and INI file.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 20070917

# exponents runs at a reduced size so that one pass fits the run budget; the
# one-ended string of 800 sites still meets Pfeuty's closed form to < 1e-10
EXPONENTS_SIZE = {"length": 1536, "separation": 400, "string-length": 800}
ORDERED_GRID = (0.80, 0.83, 0.86, 0.89, 0.92, 0.95, 0.98)
DISORDERED_GRID = (1.02, 1.05, 1.09, 1.13, 1.17, 1.21, 1.25)
GRID_WINDOW = 0.01   # ordered points move down, disordered points up, by < this
SCALE_WINDOW = 0.1   # g = h = s with s in [1 - w, 1 + w]
DUAL_TORUS = 128

REL_TOL = 1e-9
# Absolute floors for reference values that are zero up to rounding (the
# topological splitting of the torus gap, a string at g = 0); they keep a
# reordered sum from reading as a wrong answer.
VALUE_FLOOR = 1e-12
ENERGY_FLOOR = 1e-10

REFERENCE = Path(__file__).resolve().parent / "reference" / "dual_torus.json"

WORKLOADS = ("exponents", "ed-sweep", "dual-torus", "spectra")


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def make(name: str, seed: int) -> dict:
    """``{"ini": text, "argv": [[...], ...], "params": {...}}`` for one seed.

    Every argv names the INI file as ``{ini}``; the caller substitutes the
    path.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "exponents":
        ordered = [_u(rng, g - GRID_WINDOW, g) for g in ORDERED_GRID]
        disordered = [_u(rng, g, g + GRID_WINDOW) for g in DISORDERED_GRID]
        size = "".join(f"{k} = {v}\n" for k, v in EXPONENTS_SIZE.items())
        ini = ("[exponents]\n" + size
               + f"ordered-grid = {', '.join(map(repr, ordered))}\n"
               + f"disordered-grid = {', '.join(map(repr, disordered))}\n")
        return {"ini": ini, "argv": [["exponents", "--config", "{ini}"]],
                "params": {"ordered": ordered, "disordered": disordered}}
    if name == "ed-sweep":
        r, c = rng.randrange(4), rng.randrange(4)
        ini = f"[sweep]\nstart-row = {r}\nstart-col = {c}\n"
        return {"ini": ini, "argv": [["sweep", "--config", "{ini}"]],
                "params": {"start_row": r, "start_col": c},
                "oracle_argv": ["sweep", "--route", "dual", "--config", "{ini}"]}
    if name == "dual-torus":
        r, c = rng.randrange(DUAL_TORUS), rng.randrange(DUAL_TORUS)
        s_gap = _u(rng, 1 - SCALE_WINDOW, 1 + SCALE_WINDOW)
        s_corr = _u(rng, 1 - SCALE_WINDOW, 1 + SCALE_WINDOW)
        ini = (f"[sweep]\nstart-row = {r}\nstart-col = {c}\n"
               f"[crit-corr]\nscale = {s_corr!r}\n")
        n = str(DUAL_TORUS)
        return {"ini": ini,
                "argv": [["sweep", "--route", "dual", "--rows", n, "--cols", n,
                          "--config", "{ini}"],
                         ["gap-scaling", "--g", repr(s_gap), "--h", repr(s_gap)],
                         ["crit-corr", "--config", "{ini}"]],
                "params": {"start_row": r, "start_col": c, "gap_scale": s_gap,
                           "corr_scale": s_corr}}
    if name == "spectra":
        g, h = (_u(rng, 1 - SCALE_WINDOW, 1 + SCALE_WINDOW) for _ in range(2))
        s = _u(rng, 1 - SCALE_WINDOW, 1 + SCALE_WINDOW)
        return {"ini": "",
                "argv": [["duality-check", "--rows", "4", "--cols", "3",
                          "--g", repr(g), "--h", repr(h)],
                         ["gap-scaling", "--ed-sizes", "3", "4",
                          "--g", repr(s), "--h", repr(s)]],
                "params": {"g": g, "h": h, "gap_scale": s}}
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# reading output files
# ----------------------------------------------------------------------
def read_csv(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def read_meta(path: Path) -> dict:
    return json.loads(path.read_text())


def close(value: float, ref: float, floor: float = VALUE_FLOOR) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= REL_TOL * abs(ref) + floor


def _passed(out: Path, command: str) -> list[str]:
    meta = read_meta(out / f"{command}.meta.json")
    return [] if meta["results"].get("passed", True) else [f"{command}: runner verdict failed"]


# ----------------------------------------------------------------------
# oracles: each returns one list of problems per CLI invocation
# ----------------------------------------------------------------------
def check_exponents(out: Path, params: dict, _oracle) -> list[list[str]]:
    """Every row against Pfeuty's closed forms: (1 - g^2)^(1/4) for the zz
    plateau and (1 - g^-2)^(1/8) for the one-ended string."""
    problems = _passed(out, "exponents")
    rows = read_csv(out / "exponents.csv")
    grid = params["ordered"] + params["disordered"]
    if [float(r["g_I"]) for r in rows] != grid:
        problems.append("exponents: rows do not follow the requested grid")
    for r in rows:
        g, value = float(r["g_I"]), float(r["value"])
        ref = ((1 - g * g) ** 0.25 if r["branch"] == "ordered"
               else (1 - g ** -2) ** 0.125)
        if not close(value, ref, 0.0):
            problems.append(f"exponents: g={g} value {value!r} vs closed form {ref!r}")
    return [problems]


def check_ed_sweep(out: Path, params: dict, oracle: Path) -> list[list[str]]:
    """phi1, phi2 and the gap of the ED route against the dual route on the
    same torus with the same string anchors."""
    if oracle is None:
        return [["sweep: the dual route gave no output to compare with"]]
    problems = _passed(out, "sweep")
    rows, dual = read_csv(out / "sweep.csv"), read_csv(oracle / "sweep.csv")
    if len(rows) != len(dual):
        problems.append("sweep: row count differs from the dual route")
    for r, d in zip(rows, dual):
        for key in ("phi1", "phi2", "gap"):
            a, b = float(r[key]), float(d[key])
            if not abs(a - b) <= REL_TOL:
                problems.append(f"sweep step {r['step']}: {key} {a!r} vs dual {b!r}")
    return [problems]


def check_dual_torus(out: Path, params: dict, _oracle) -> list[list[str]]:
    """Every CSV value against the stored reference.  Anchors move the
    strings by a torus translation, which leaves every value unchanged; the
    gap scales with g = h = s; the critical correlator does not depend on the
    overall scale."""
    ref = json.loads(REFERENCE.read_text())
    sweep = _passed(out, "sweep")
    rows = read_csv(out / "sweep.csv")
    if len(rows) != len(ref["sweep"]):
        sweep.append("sweep: row count differs from the reference")
    for r, want in zip(rows, ref["sweep"]):
        for key, expect in want.items():
            floor = ENERGY_FLOOR if key in ("gap", "energy") else VALUE_FLOOR
            expect = math.nan if expect is None else expect
            if not close(float(r[key]), expect, floor):
                sweep.append(f"sweep step {r['step']}: {key} {r[key]} vs {expect!r}")

    s = params["gap_scale"]
    gaps = _passed(out, "gap-scaling")
    rows = read_csv(out / "gap-scaling.csv")
    if [int(r["size"]) for r in rows] != [w["size"] for w in ref["gap-scaling"]]:
        gaps.append("gap-scaling: sizes differ from the reference")
    for r, want in zip(rows, ref["gap-scaling"]):
        if not close(float(r["gap"]), s * want["gap"], s * ENERGY_FLOOR):
            gaps.append(f"gap-scaling size {r['size']}: {r['gap']} vs {s * want['gap']!r}")

    corr = _passed(out, "crit-corr")
    rows = read_csv(out / "crit-corr.csv")
    if len(rows) != len(ref["crit-corr"]):
        corr.append("crit-corr: row count differs from the reference")
    for r, want in zip(rows, ref["crit-corr"]):
        for key, expect in want.items():
            if not close(float(r[key]), expect):
                corr.append(f"crit-corr n={r['n']}: {key} {r[key]} vs {expect!r}")
    return [sweep, gaps, corr]


def check_spectra(out: Path, params: dict, _oracle) -> list[list[str]]:
    """``max_deviation`` and the ED cross-checks against the tolerances the
    runs were configured with."""
    dual = _passed(out, "duality-check")
    meta = read_meta(out / "duality-check.meta.json")
    (row,) = read_csv(out / "duality-check.csv")
    if int(row["levels_2d"]) != 4096 or row["levels_2d"] != row["levels_dual"]:
        dual.append(f"duality-check: level counts {row['levels_2d']} / {row['levels_dual']}")
    if not float(row["max_deviation"]) <= meta["config"]["tol"]:
        dual.append(f"duality-check: max_deviation {row['max_deviation']}")

    gaps = _passed(out, "gap-scaling")
    meta = read_meta(out / "gap-scaling.meta.json")
    checks = meta["results"]["ed_checks"]
    if [c["size"] for c in checks] != [3, 4]:
        gaps.append("gap-scaling: ED cross-checks missing")
    for c in checks:
        if not c["abs_error"] <= meta["config"]["ed_tol"]:
            gaps.append(f"gap-scaling: ED size {c['size']} off by {c['abs_error']}")
    return [dual, gaps]


CHECKS = {
    "exponents": check_exponents,
    "ed-sweep": check_ed_sweep,
    "dual-torus": check_dual_torus,
    "spectra": check_spectra,
}

# Spans and counters each workload must exercise: a traced pass in which
# any of them reads zero is an error, not a 0 s reading.
REQUIRED = {
    "exponents": (
        "freefermion.bdg_solve.open", "freefermion.bdg_solve.ring",
        "freefermion.disorder_parameter", "freefermion.zz_correlator",
        "freefermion.det_flops_computed", "lapack.eigh_tridiagonal",
        "lapack.slogdet", "sweep.runner", "sweep.fit_powerlaw",
        "cli.run_command", "cli.bytes_written",
    ),
    "ed-sweep": (
        "ed.HamiltonianOperator.matvec", "ed.operator_ground_spectrum",
        "ed.lanczos.iterations", "ed.HamiltonianOperator.compile",
        "ed.compile.bytes_computed", "ed.expectation", "lapack.eigh_tridiagonal",
        "observables.ground_state_for_measurement", "sweep.runner",
        "cli.run_command", "cli.bytes_written",
    ),
    "dual-torus": (
        "lattice.enumerate_plaquettes", "lattice.chain_decompose",
        "lattice.site_adjacent_plaquettes", "duality.map_hamiltonian",
        "duality.dual_lattice_gap", "freefermion.bdg_solve.ring",
        "freefermion.xx_correlator", "observables.sx_string_expectation_dual",
        "observables.plaquette_string_expectation_dual", "sweep.runner",
        "sweep.fit_powerlaw", "cli.run_command", "cli.bytes_written",
    ),
    "spectra": (
        "duality.full_dual_spectrum", "duality.duality_spectrum_check",
        "ed.full_spectrum", "ed.HamiltonianOperator.dense",
        "ed.dense_matrix_from_terms", "lapack.eigh", "lapack.eigvalsh",
        "ed.operator_ground_spectrum", "ed.lanczos.iterations",
        "sweep.runner", "sweep.fit_powerlaw", "cli.run_command",
        "cli.bytes_written",
    ),
}
