"""Batch experiments: coupling sweeps, gap scaling, critical correlators,
order-parameter exponents, and duality self-checks.

Every runner returns ``(rows, meta)``: a list of plain dict rows (one CSV
line each, deterministic order) and a metadata dict (fit results, verdicts,
parameters).  Output files never embed timestamps - those live in the
``.meta.json`` sidecar - so reruns are byte-identical.

A coupling sweep builds its lattice's structure once and re-weights it at
each point: one dual map on the dual route, one loop-sector block (labels
and flip row maps) on the ED route.  Each row is bitwise the row its point
gives alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .duality import dual_lattice_gap, duality_spectrum_check, map_hamiltonian
from .ed import (
    DENSE_MAX_SPINS,
    HamiltonianSpec,
    SpectrumResult,
    full_spectrum,
    ground_spectrum,
)
from .errors import InvalidSpec
from .freefermion import (
    TFIMChainSpec,
    bdg_solve,
    disorder_parameter,
    magnetization_x,
    xx_correlator,
    zz_correlator,
)
from .lattice import Boundary, ChainBoundary, LatticeSpec
from .observables import (
    DiagonalSegment,
    ground_state_for_measurement,
    plaquette_string_expectation_dual,
    plaquette_string_expectation_ed,
    sx_string_expectation_dual,
    sx_string_expectation_ed,
)

__all__ = [
    "CouplingSweepConfig",
    "GapScalingConfig",
    "CritCorrConfig",
    "ExponentsConfig",
    "DualityCheckConfig",
    "run_coupling_sweep",
    "run_gap_scaling",
    "run_crit_corr",
    "run_exponents",
    "run_duality_check",
    "fit_powerlaw",
    "config_digest",
]


def config_digest(cfg) -> str:
    """Stable sha256 of a config dataclass (canonical JSON)."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def fit_powerlaw(x: np.ndarray, y: np.ndarray) -> dict:
    """Least-squares line through ``(log x, log y)`` with residual diagnostics."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(np.unique(x)) < 2:
        raise InvalidSpec("power-law fit needs at least two distinct abscissae")
    if np.any(x <= 0) or np.any(y <= 0):
        raise InvalidSpec("power-law fit needs positive data")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "max_abs_residual": float(np.abs(resid).max()),
        "n_points": int(len(x)),
    }


# ----------------------------------------------------------------------
# coupling sweep across the phase diagram (torus string observables)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CouplingSweepConfig:
    rows: int = 4
    cols: int = 4
    steps: int = 11               # (g, h) = (t/(steps-1), 1 - t/(steps-1))
    string_steps: int = 2         # sx string covers string_steps + 1 sites
    plaquette_count: int = 2      # plaquettes in the product string
    route: str = "ed"             # "ed" (2D ground state) or "dual" (dual chains)
    start_row: int | None = None  # string anchors; defaults pick an interior
    start_col: int | None = None  #   diagonal that stays on bond sites
    endpoint_tol: float = 1e-8    # exact limits expected at g = 0 and h = 0


def _sweep_point(cfg: CouplingSweepConfig, hs: HamiltonianSpec, t: int,
                 shared: dict) -> dict:
    """Row ``t`` at ``hs``; ``shared`` holds what the sweep built for its
    lattice once: the dual model (``"model"``) or the ED loop-sector block."""
    g, h = hs.g, hs.h
    sr = cfg.start_row if cfg.start_row is not None else cfg.rows - 1
    sc = cfg.start_col if cfg.start_col is not None else 1
    seg = DiagonalSegment(sr, sc, cfg.string_steps)
    if cfg.route == "dual":
        cache = {"model": shared["model"].at(g, h)}  # the ring solves stay per point
        phi1 = sx_string_expectation_dual(hs, seg, cache)
        phi2 = plaquette_string_expectation_dual(
            hs, sr, sc - 1, cfg.plaquette_count, cache)
        energy = math.nan
    else:
        state, energy = ground_state_for_measurement(hs, _cache=shared)
        phi1 = sx_string_expectation_ed(hs, seg, state)
        phi2 = plaquette_string_expectation_ed(hs, sr, sc - 1, cfg.plaquette_count, state)
    gap = dual_lattice_gap(cfg.rows, cfg.cols, g, h)
    return {
        "step": t, "g": g, "h": h,
        "phi1": phi1, "phi2": phi2,
        "gap": gap, "energy": energy,
    }


def run_coupling_sweep(cfg: CouplingSweepConfig) -> tuple[list[dict], dict]:
    """phi1, phi2 and the gap at ``cfg.steps`` points of ``g + h = 1``.

    ``route`` picks where phi1, phi2 and ``energy`` come from: the 2D ground
    state (``"ed"``) or the dual chains (``"dual"``, where ``energy`` is
    nan).  On both routes the ``gap`` column is the dual-route torus gap,
    :func:`~plaqising.duality.dual_lattice_gap`.

    The lattice's structure is built once per sweep, and each point only
    re-weights it with its couplings: the dual route maps the lattice once
    and takes each point's model from :meth:`DualModel.at`; the ED route
    finds the loop sector's labels, and each flip's row map, once
    (:func:`~plaqising.ed.parity_block`), and compiles each point's weights
    afresh.  Every number is the one a point computed alone gives.
    """
    if cfg.steps < 2:
        raise InvalidSpec("a sweep needs at least two points")
    if cfg.route not in ("ed", "dual"):
        raise InvalidSpec("route must be 'ed' or 'dual'")
    spec = LatticeSpec(cfg.rows, cfg.cols, Boundary.PERIODIC)  # the size check comes first
    ring = math.lcm(cfg.rows, cfg.cols)  # sites of one diagonal loop
    if not (0 <= cfg.string_steps < ring - 1 and 1 <= cfg.plaquette_count < ring):
        raise InvalidSpec(f"need 0 <= string_steps < {ring - 1} and 1 <= plaquette_count"
                          f" < {ring}: a string is shorter than the ring length {ring}")
    fracs = [t / (cfg.steps - 1) for t in range(cfg.steps)]
    points = [HamiltonianSpec(spec, frac, 1.0 - frac) for frac in fracs]
    shared = {"model": map_hamiltonian(points[0])} if cfg.route == "dual" else {}
    rows = [_sweep_point(cfg, hs, t, shared) for t, hs in enumerate(points)]
    phi1 = [r["phi1"] for r in rows]
    phi2 = [r["phi2"] for r in rows]
    tol = cfg.endpoint_tol
    endpoints_ok = (
        abs(phi1[0] - 1.0) <= tol and abs(phi1[-1]) <= tol
        and abs(phi2[0]) <= tol and abs(phi2[-1] - 1.0) <= tol
    )
    meta = {
        "phi1_monotone_nonincreasing": all(
            phi1[i + 1] <= phi1[i] + 1e-9 for i in range(len(phi1) - 1)
        ),
        "phi2_monotone_nondecreasing": all(
            phi2[i + 1] >= phi2[i] - 1e-9 for i in range(len(phi2) - 1)
        ),
        "endpoints": {
            "phi1_at_g0": phi1[0], "phi1_at_h0": phi1[-1],
            "phi2_at_g0": phi2[0], "phi2_at_h0": phi2[-1],
        },
        "endpoints_exact": endpoints_ok,
    }
    meta["passed"] = (
        meta["phi1_monotone_nonincreasing"]
        and meta["phi2_monotone_nondecreasing"]
        and endpoints_ok
    )
    return rows, meta


# ----------------------------------------------------------------------
# critical-gap scaling with system size
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GapScalingConfig:
    sizes: tuple[int, ...] = (8, 16, 32, 64, 128)
    g: float = 1.0
    h: float = 1.0
    ed_sizes: tuple[int, ...] = ()   # small tori re-checked by exact diagonalization
    ed_tol: float = 1e-8             # agreement required from the ED cross-check
    slope_band: float = 0.1          # fitted slope must sit in -1 +- slope_band


def _ed_torus_spectrum(n: int, g: float, h: float) -> SpectrumResult:
    """Every level (dense), or each loop sector's two lowest (Lanczos)."""
    hs = HamiltonianSpec(LatticeSpec(n, n, Boundary.PERIODIC), g, h)
    if hs.n_spins <= DENSE_MAX_SPINS:
        return full_spectrum(hs)
    return ground_spectrum(hs, 2)


def run_gap_scaling(cfg: GapScalingConfig) -> tuple[list[dict], dict]:
    if any(n < 3 for n in cfg.sizes + cfg.ed_sizes):
        raise InvalidSpec("torus sizes start at 3")
    if len(set(cfg.sizes)) < 2:
        raise InvalidSpec(f"sizes = {cfg.sizes} needs at least two distinct values"
                          " for the power-law fit")
    rows = [
        {"size": n, "gap": dual_lattice_gap(n, n, cfg.g, cfg.h)}
        for n in cfg.sizes
    ]
    fit = fit_powerlaw([r["size"] for r in rows], [r["gap"] for r in rows])
    meta = {"fit": fit, "ed_checks": []}
    for n in cfg.ed_sizes:
        res = _ed_torus_spectrum(n, cfg.g, cfg.h)
        blocks = res.info["blocks"]
        dual_gap = dual_lattice_gap(n, n, cfg.g, cfg.h)
        meta["ed_checks"].append(
            {"size": n, "ed_gap": res.gap, "dual_gap": dual_gap,
             "abs_error": abs(res.gap - dual_gap),
             "method": blocks[0]["method"],  # the blocks share one size
             "iterations": sum(b.get("iterations", 0) for b in blocks),
             "blocks": len(blocks), "sectors": res.info["sectors"]}
        )
    meta["slope_in_band"] = abs(fit["slope"] + 1.0) <= cfg.slope_band
    meta["ed_checks_ok"] = all(
        c["abs_error"] <= cfg.ed_tol for c in meta["ed_checks"]
    )
    meta["passed"] = meta["slope_in_band"] and meta["ed_checks_ok"]
    return rows, meta


# ----------------------------------------------------------------------
# critical two-point functions on a large ring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CritCorrConfig:
    length: int = 4096
    n_max: int = 10
    scale: float = 1.0       # field = bond: the chain sits at its critical point
    tol: float = 1e-3        # band for every connected value vs its asymptote
    const_tol: float = 1e-4  # band for the additive constant vs 4/pi^2


def run_crit_corr(cfg: CritCorrConfig) -> tuple[list[dict], dict]:
    if not 1 <= cfg.n_max < cfg.length:
        raise InvalidSpec(f"n_max = {cfg.n_max} must be at least 1 and below"
                          f" length = {cfg.length}")
    chain = TFIMChainSpec(cfg.length, ChainBoundary.PERIODIC_CHAIN, cfg.scale, cfg.scale)
    sol = bdg_solve(chain)
    mx = magnetization_x(sol, 1)
    const = mx * mx
    rows = []
    worst = 0.0
    for n in range(1, cfg.n_max + 1):
        conn = xx_correlator(sol, 1, 1 + n) - const
        ref = 4.0 / (math.pi**2 * (4 * n * n - 1))
        err = abs(conn - ref)
        worst = max(worst, err)
        rows.append({"n": n, "xx_connected": conn, "reference": ref,
                     "abs_error": err})
    four_over_pi2 = 4.0 / math.pi**2
    two_over_pi2 = 2.0 / math.pi**2
    supported = "4/pi^2" if abs(const - four_over_pi2) < abs(const - two_over_pi2) else "2/pi^2"
    meta = {
        "magnetization_x": mx,
        "constant_measured": const,
        "constant_4_over_pi2": four_over_pi2,
        "constant_2_over_pi2": two_over_pi2,
        "constant_abs_error_vs_4_over_pi2": abs(const - four_over_pi2),
        "supported_constant": supported,
        "worst_connected_error": worst,
    }
    meta["passed"] = (
        worst <= cfg.tol and abs(const - four_over_pi2) <= cfg.const_tol
    )
    return rows, meta


# ----------------------------------------------------------------------
# order-parameter exponents on both sides of the transition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExponentsConfig:
    length: int = 4096
    ordered_grid: tuple[float, ...] = (0.80, 0.83, 0.86, 0.89, 0.92, 0.95, 0.98)
    separation: int = 600           # zz plateau distance on the ring
    disordered_grid: tuple[float, ...] = (1.02, 1.05, 1.09, 1.13, 1.17, 1.21, 1.25)
    string_length: int = 1200       # tx string length on the open chain
    beta1_tol: float = 0.03         # allowed deviation from the exact 1/4
    beta2_tol: float = 0.02         # allowed deviation from the exact 1/8


def _ordered_point(cfg: ExponentsConfig, g: float) -> dict:
    chain = TFIMChainSpec(cfg.length, ChainBoundary.PERIODIC_CHAIN, g, 1.0)
    sol = bdg_solve(chain)
    val = zz_correlator(sol, 1, 1 + cfg.separation)
    return {"branch": "ordered", "g_I": g, "abscissa": 1.0 - g, "value": val}


def _disordered_point(cfg: ExponentsConfig, g: float) -> tuple[dict, float]:
    """The row of one open-chain point and its solve's orthogonality bound."""
    chain = TFIMChainSpec(cfg.length, ChainBoundary.OPEN_CHAIN, g, 1.0)
    sol = bdg_solve(chain, corr_size=cfg.string_length)
    val = disorder_parameter(sol, cfg.string_length)
    row = {"branch": "disordered", "g_I": g, "abscissa": g - 1.0, "value": val}
    return row, sol.orthogonality_bound


def run_exponents(cfg: ExponentsConfig) -> tuple[list[dict], dict]:
    if not 1 <= cfg.separation < cfg.length // 2:
        raise InvalidSpec(f"separation = {cfg.separation} must be at least 1 and"
                          f" below half the ring, {cfg.length // 2}")
    if not 1 <= cfg.string_length <= cfg.length:
        raise InvalidSpec(f"string_length = {cfg.string_length} must be at least 1"
                          f" and at most length = {cfg.length}")
    for name, grid, inside, where in (
            ("ordered_grid", cfg.ordered_grid, lambda g: 0 <= g < 1, "in [0, 1)"),
            ("disordered_grid", cfg.disordered_grid, lambda g: 1 < g < math.inf,
             "above 1")):
        if len(set(grid)) < 2 or not all(map(inside, grid)):
            raise InvalidSpec(f"{name} = {grid} needs at least two distinct"
                              f" values, each {where}")
    ordered = [_ordered_point(cfg, g) for g in cfg.ordered_grid]
    points = [_disordered_point(cfg, g) for g in cfg.disordered_grid]
    disordered = [row for row, _ in points]
    rows = ordered + disordered
    fit1 = fit_powerlaw([r["abscissa"] for r in ordered],
                        [r["value"] for r in ordered])
    fit2 = fit_powerlaw([r["abscissa"] for r in disordered],
                        [r["value"] for r in disordered])
    meta = {
        "beta1": fit1["slope"], "beta1_fit": fit1,
        "beta2": fit2["slope"], "beta2_fit": fit2,
        "beta1_reference": 0.25, "beta2_reference": 0.125,
        "open_orthogonality_max": max(bound for _, bound in points),
    }
    # report only, outside the verdict: each branch against Pfeuty's closed
    # forms (1 - g^2)^(1/4) and (1 - g^-2)^(1/8), and the slopes fitted
    # against those exact scaling variables instead of 1 - g and g - 1
    v1 = np.array([r["value"] for r in ordered])
    v2 = np.array([r["value"] for r in disordered])
    x1 = 1.0 - np.array([r["g_I"] for r in ordered]) ** 2
    x2 = 1.0 - np.array([r["g_I"] for r in disordered]) ** -2.0
    meta["beta1_closed_form_max_rel_dev"] = float(np.max(np.abs(v1 / x1**0.25 - 1.0)))
    meta["beta2_closed_form_max_rel_dev"] = float(np.max(np.abs(v2 / x2**0.125 - 1.0)))
    meta["beta1_exact_variable"] = fit_powerlaw(x1, v1)["slope"]
    meta["beta2_exact_variable"] = fit_powerlaw(x2, v2)["slope"]
    meta["passed"] = (
        abs(fit1["slope"] - 0.25) <= cfg.beta1_tol
        and abs(fit2["slope"] - 0.125) <= cfg.beta2_tol
    )
    return rows, meta


# ----------------------------------------------------------------------
# duality self-check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DualityCheckConfig:
    rows: int = 3
    cols: int = 3
    g: float = 1.0
    h: float = 1.0
    boundary: str = "periodic"
    sector_resolved: bool = True
    tol: float = 1e-9


def run_duality_check(cfg: DualityCheckConfig) -> tuple[list[dict], dict]:
    if cfg.boundary not in ("periodic", "open"):
        raise InvalidSpec("boundary must be 'periodic' or 'open'")
    bnd = Boundary.PERIODIC if cfg.boundary == "periodic" else Boundary.OPEN
    hs = HamiltonianSpec(LatticeSpec(cfg.rows, cfg.cols, bnd), cfg.g, cfg.h)
    rep = duality_spectrum_check(hs, tol=cfg.tol,
                                 sector_resolved=cfg.sector_resolved)
    rows = [{
        "rows": cfg.rows, "cols": cfg.cols, "g": cfg.g, "h": cfg.h,
        "boundary": cfg.boundary,
        "sector_resolved": int(rep.sector_resolved),
        "levels_2d": rep.n_levels_2d, "levels_dual": rep.n_levels_dual,
        "max_deviation": rep.max_deviation,
        "ground_energy_2d": rep.ground_energy_2d,
        "ground_energy_dual": rep.ground_energy_dual,
        "gap_2d": rep.gap_2d, "gap_dual": rep.gap_dual,
        "passed": int(rep.passed),
    }]
    meta = {"passed": rep.passed, "notes": rep.notes, "tol": cfg.tol}
    return rows, meta
