"""Command-line front end.

Subcommands
-----------
sweep         string order parameters and gap across the g + h = 1 ray
gap-scaling   critical gap versus linear size, with optional ED cross-checks
crit-corr     connected transverse correlator on a critical ring
exponents     order-parameter exponents on both sides of the transition
duality-check spectrum comparison between the 2D model and its dual chains

Exit codes: 0 success, 1 bad input or config, 2 numerical failure
(non-convergence or a violated internal invariant), 3 a physics check
failed.

Every run writes ``<command>.csv`` (or ``.json``) plus ``<command>.meta.json``
into ``--out``.  Data files carry a ``#`` comment header (sign convention,
config digest) and no timestamps, so reruns are byte-identical; volatile
details live in the sidecar.  An INI file passed with ``--config`` supplies
defaults under a section named after the subcommand; explicit flags win.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import sweep as sweeplib
from .errors import (
    InvalidSpec,
    NotConverged,
    NumericalFailure,
    PlaqIsingError,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3

SIGN_CONVENTION = (
    "H = -g * sum_p F_p - h * sum_j sx_j   (g, h >= 0; energies share the "
    "units of g and h)"
)

_COMMANDS = {
    "sweep": (sweeplib.CouplingSweepConfig, sweeplib.run_coupling_sweep),
    "gap-scaling": (sweeplib.GapScalingConfig, sweeplib.run_gap_scaling),
    "crit-corr": (sweeplib.CritCorrConfig, sweeplib.run_crit_corr),
    "exponents": (sweeplib.ExponentsConfig, sweeplib.run_exponents),
    "duality-check": (sweeplib.DualityCheckConfig, sweeplib.run_duality_check),
}


def _coerce(raw: str, annotation: str):
    """Parse an INI string according to a config field's type annotation."""
    ann = annotation.replace(" ", "")
    if ann == "bool":
        states = configparser.ConfigParser.BOOLEAN_STATES
        word = raw.strip().lower()
        if word not in states:
            raise InvalidSpec(f"not a boolean: {raw!r} (use one of {', '.join(states)})")
        return states[word]
    if ann in ("int", "int|None"):
        return int(raw)
    if ann in ("float", "float|None"):
        return float(raw)
    if ann.startswith("tuple[int"):
        return tuple(int(p) for p in raw.replace(",", " ").split())
    if ann.startswith("tuple[float"):
        return tuple(float(p) for p in raw.replace(",", " ").split())
    return raw


def _load_ini(path: str, command: str, cfg_cls) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    if command not in parser:
        return {}
    annotations = {f.name: f.type for f in dataclasses.fields(cfg_cls)}
    out = {}
    for key, raw in parser[command].items():
        name = key.replace("-", "_")
        if name not in annotations:
            raise ValueError(f"unknown key '{key}' in [{command}]")
        out[name] = _coerce(raw, annotations[name])
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plaqising",
        description="plaquette-Ising duality laboratory",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None,
                       help="INI file; the section named after the subcommand "
                            "supplies defaults")
        p.add_argument("--out", type=str, default=".",
                       help="output directory (default: current)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("sweep", help="string order parameters along g + h = 1")
    common(p)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--string-steps", type=int, default=None)
    p.add_argument("--plaquettes", type=int, default=None,
                   dest="plaquette_count")
    p.add_argument("--route", choices=("ed", "dual"), default=None)

    p = sub.add_parser("gap-scaling", help="critical gap versus linear size")
    common(p)
    p.add_argument("--sizes", type=int, nargs="+", default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--ed-sizes", type=int, nargs="*", default=None,
                   dest="ed_sizes")
    p.add_argument("--tol", type=float, default=None, dest="ed_tol",
                   help="required ED agreement")

    p = sub.add_parser("crit-corr", help="critical connected correlator")
    common(p)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    p.add_argument("--tol", type=float, default=None,
                   help="band around the asymptote")

    p = sub.add_parser("exponents", help="order-parameter exponents")
    common(p)
    p.add_argument("--length", type=int, default=None)
    p.add_argument("--separation", type=int, default=None)
    p.add_argument("--string-length", type=int, default=None,
                   dest="string_length")

    p = sub.add_parser("duality-check", help="2D vs dual-chain spectra")
    common(p)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--g", type=float, default=None)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--boundary", choices=("periodic", "open"), default=None)
    p.add_argument("--literal", action="store_true",
                   help="compare plain tensor sums, ignoring sector structure")
    p.add_argument("--tol", type=float, default=None)

    return top


def _resolve_config(args: argparse.Namespace):
    """Merge builtin defaults, INI section, and explicit flags."""
    cfg_cls, runner = _COMMANDS[args.command]
    values = {f.name: f.default for f in dataclasses.fields(cfg_cls)}
    if args.config:
        values.update(_load_ini(args.config, args.command, cfg_cls))
    for name in values:
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            values[name] = tuple(cli_val) if isinstance(cli_val, list) else cli_val
    if args.command == "duality-check" and args.literal:
        values["sector_resolved"] = False
    for name, val in values.items():
        # every float field is a coupling, scale, tolerance or band: a nan,
        # inf or negative one is bad input, not a physics verdict
        if any(isinstance(v, float) and not (math.isfinite(v) and v >= 0)
               for v in (val if isinstance(val, tuple) else (val,))):
            raise InvalidSpec(f"{name} must be finite and nonnegative, got {val!r}")
    return cfg_cls(**values), runner


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, rows: list[dict], comments: list[str]) -> None:
    with path.open("w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        cols = list(rows[0].keys())
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])


def _write_json(path: Path, rows: list[dict], comments: list[str]) -> None:
    payload = {"comments": comments, "rows": rows}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_command(args: argparse.Namespace) -> int:
    cfg, runner = _resolve_config(args)
    rows, meta = runner(cfg)
    digest = sweeplib.config_digest(cfg)
    comments = [
        f"plaqising {args.command}",
        SIGN_CONVENTION,
        f"config sha256: {digest}",
    ]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.command
    if args.format == "csv":
        data_path = out_dir / f"{stem}.csv"
        _write_csv(data_path, rows, comments)
    else:
        data_path = out_dir / f"{stem}.json"
        _write_json(data_path, rows, comments)
    sidecar = {
        "command": args.command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(cfg),
        "config_sha256": digest,
        "data_file": data_path.name,
        "results": meta,
    }
    (out_dir / f"{stem}.meta.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True, default=str) + "\n"
    )
    passed = meta.get("passed", True)
    print(f"{args.command}: {'ok' if passed else 'CHECK FAILED'} "
          f"({len(rows)} rows -> {data_path})")
    for key, val in meta.items():
        if key in ("passed",):
            continue
        if isinstance(val, (bool, int, float, str)):
            print(f"  {key} = {val}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run_command(args)
    except (NotConverged, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PlaqIsingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
