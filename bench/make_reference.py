"""Write ``reference/dual_torus.json``: the dual-torus outputs at the default
string anchors and at g = h = 1, from the sources under ``src/``.

    python3 bench/make_reference.py

The stored file is the oracle for the dual-torus workload, so regenerate it
only when a change is meant to move those values, and say so.
"""

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import plaqising.cli as cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_run" / "reference"
    shutil.rmtree(out, ignore_errors=True)
    n = str(workloads.DUAL_TORUS)
    for argv in (["sweep", "--route", "dual", "--rows", n, "--cols", n],
                 ["gap-scaling"], ["crit-corr"]):
        if cli.main(argv + ["--out", str(out)]) != 0:
            return 1

    def numbers(row: dict, keys) -> dict:
        vals = {k: float(row[k]) for k in keys}
        return {k: None if math.isnan(v) else v for k, v in vals.items()}

    ref = {
        "sweep": [numbers(r, ("step", "g", "h", "phi1", "phi2", "gap", "energy"))
                  for r in workloads.read_csv(out / "sweep.csv")],
        "gap-scaling": [{"size": int(r["size"]), "gap": float(r["gap"])}
                        for r in workloads.read_csv(out / "gap-scaling.csv")],
        "crit-corr": [numbers(r, ("n", "xx_connected", "reference", "abs_error"))
                      for r in workloads.read_csv(out / "crit-corr.csv")],
    }
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
