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
details live in the sidecar: ``created_utc`` and the ``run`` block (the
process's peak RSS in MB, the numpy and scipy versions, and ``blas``: each
loaded OpenBLAS with its file name, build config, thread count and the
``OPENBLAS_THREAD_TIMEOUT`` it read, see ``plaqising/__init__.py``).

Each config value has one path from text.  An INI file passed with
``--config`` supplies values in a section named after the subcommand, keyed
by config field (``-`` or ``_``); each flag listed in ``_FLAGS`` sets one
field, and a given flag wins over the INI file.  Both reach ``_coerce`` as
text, which reads it as the field's annotated type, so an unreadable value or
an unknown key exits 1 with an error that names the field.  The runners check
the allowed values of ``route`` and ``boundary`` and every range.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import ctypes
import dataclasses
import functools
import json
import math
import resource
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import _blas_thread_timeout
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


# subcommand -> (help line, {flag: the config field it sets}); the field's INI
# key is its name with "-" for "_"
_FLAGS = {
    "sweep": ("string order parameters along g + h = 1", {
        "--rows": "rows", "--cols": "cols", "--steps": "steps",
        "--string-steps": "string_steps", "--plaquettes": "plaquette_count",
        "--route": "route"}),
    "gap-scaling": ("critical gap versus linear size", {
        "--sizes": "sizes", "--g": "g", "--h": "h", "--ed-sizes": "ed_sizes",
        "--tol": "ed_tol"}),
    "crit-corr": ("critical connected correlator", {
        "--length": "length", "--n-max": "n_max", "--tol": "tol"}),
    "exponents": ("order-parameter exponents", {
        "--length": "length", "--separation": "separation",
        "--string-length": "string_length"}),
    "duality-check": ("2D vs dual-chain spectra", {
        "--rows": "rows", "--cols": "cols", "--g": "g", "--h": "h",
        "--boundary": "boundary", "--literal": "sector_resolved", "--tol": "tol"}),
}
# a switch takes no value: it sets its field to this text
_SWITCHES = {"--literal": "false"}

_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES
# scalar type of a config field -> reader of its text
_READERS = {"int": int, "float": float, "str": str,
            "bool": lambda text: _BOOLEANS[text.strip().lower()]}


def _field_types(command: str) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(_COMMANDS[command][0])}


def _coerce(name: str, raw: str, annotation: str):
    """Read the text of one INI value or flag as config field ``name``.

    ``annotation`` is the field's annotation string: a scalar, an optional
    scalar (``int | None``) or a tuple of scalars, whose text is split at
    commas and spaces.
    """
    ann = annotation.replace(" ", "")
    many = ann.startswith("tuple[")
    kind = ann.removeprefix("tuple[").split(",")[0].split("|")[0]
    read = _READERS[kind]
    try:
        value = tuple(map(read, raw.replace(",", " ").split())) if many else read(raw)
    except (KeyError, ValueError):
        hint = f" (one of {', '.join(_BOOLEANS)})" if kind == "bool" else ""
        raise InvalidSpec(f"{name}: {raw!r} does not read as "
                          f"{'a list of ' if many else ''}{kind}{hint}") from None
    # every float field is a coupling, scale, tolerance or band: a nan, inf
    # or negative one is bad input, not a physics verdict
    if kind == "float" and not all(math.isfinite(v) and v >= 0
                                   for v in (value if many else (value,))):
        raise InvalidSpec(f"{name} must be finite and nonnegative, got {value!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are bad input (exit 1), not
    argparse's exit 2, which is kept for numerical failure."""

    def error(self, message: str):
        raise InvalidSpec(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_FLAGS`` entry; every flag value stays text."""
    top = _Parser(prog="plaqising", description="plaquette-Ising duality laboratory")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_line, flags) in _FLAGS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config",
                       help="INI file; the section named after the subcommand "
                            "supplies defaults")
        p.add_argument("--out", default=".",
                       help="output directory (default: current)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        types = _field_types(command)
        for flag, name in flags.items():
            key = name.replace("_", "-")
            if flag in _SWITCHES:
                p.add_argument(flag, action="store_const", const=_SWITCHES[flag],
                               dest=name, help=f"INI: {key} = {_SWITCHES[flag]}")
            else:
                p.add_argument(flag, dest=name, help=f"INI: {key} ({types[name]})",
                               nargs="*" if types[name].startswith("tuple[") else None)
    return top


def _resolve_config(args: argparse.Namespace):
    """Merge the INI section and the given flags as text (flags win), then
    read each value as its field's type; fields left unset keep their
    defaults."""
    cfg_cls, runner = _COMMANDS[args.command]
    text = {}
    if args.config:
        ini = configparser.ConfigParser()
        try:
            ini.read_string(Path(args.config).read_text(), source=args.config)
            if ini.defaults():  # configparser would read them into every section
                raise InvalidSpec(f"{args.config}: [DEFAULT] is not supported; "
                                  f"put its keys in [{args.command}]")
            if args.command in ini:
                text = {k.replace("-", "_"): v for k, v in ini[args.command].items()}
        except configparser.Error as exc:
            raise InvalidSpec(f"{args.config} is not a valid INI file: "
                              f"{' '.join(str(exc).split())}") from None
    for name in _FLAGS[args.command][1].values():
        given = getattr(args, name)
        if given is not None:
            text[name] = " ".join(given) if isinstance(given, list) else given
    types = _field_types(args.command)
    values = {}
    for name, raw in text.items():
        if name not in types:
            raise InvalidSpec(f"unknown key '{name}' in [{args.command}]")
        values[name] = _coerce(name, raw, types[name])
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


@functools.cache
def _blas() -> tuple[dict, ...]:
    """Each OpenBLAS loaded in this process (numpy and scipy bring one each):
    its file name, ``*_get_config`` string, thread count and the idle-spin
    exponent it read (None where numpy loaded before plaqising set it).
    Read once, after the first run has loaded both; empty without /proc."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return ()
    paths = sorted({ln.split()[-1] for ln in maps
                    if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name, "thread_timeout": _blas_thread_timeout}
        # the symbol names of the scipy-openblas wheels (64_: 64-bit ints)
        for stem in ("scipy_openblas{}64_", "scipy_openblas{}",
                     "openblas{}64_", "openblas{}"):
            config, threads = (getattr(lib, stem.format(f), None)
                               for f in ("_get_config", "_get_num_threads"))
            if config is not None and threads is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                entry.update(config=config().decode(), threads=threads())
                break
        out.append(entry)
    return tuple(out)


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
        "run": {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "numpy": np.__version__, "scipy": scipy.__version__,
                "blas": _blas()},
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
    try:
        return run_command(_build_parser().parse_args(argv))
    except (NotConverged, NumericalFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (PlaqIsingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
