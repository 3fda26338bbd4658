"""Span tracing of plaqising's layers, installed from outside the package.

``install(tracer)`` swaps a timing wrapper in for every public function of the
traced modules, for three ``HamiltonianOperator`` methods and for the LAPACK
entry points the package calls.  Wrappers replace module attributes at run
time; no source file changes.  Every binding of an original function in any
``plaqising`` module (``from .freefermion import bdg_solve`` and the like,
plus dicts and tuples held in module globals such as ``cli._COMMANDS``) is
redirected, and ``install`` raises if any binding is left over.

A span is ``[name, start, end, parent]``.  Spans stay in memory; the caller
writes them out when the pass ends.  ``layer_metrics`` turns them into the
per-layer metrics listed in ``PER_LAYER``.

The tracer keeps one span stack and assumes one thread, which holds while
``--threads`` stays at its default of 1; a call from another thread raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

TRACED_MODULES = ("lattice", "duality", "ed", "freefermion", "observables",
                  "sweep", "cli")

# HamiltonianOperator methods and the names their spans carry
OPERATOR_METHODS = {"_compile": "compile", "matvec": "matvec", "dense": "dense"}

# (module, attribute, span name) of the LAPACK entry points
LAPACK = (
    ("scipy.linalg", "eigh_tridiagonal", "lapack.eigh_tridiagonal"),
    ("scipy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "slogdet", "lapack.slogdet"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
)

RUNNERS = ("run_coupling_sweep", "run_gap_scaling", "run_crit_corr",
           "run_exponents", "run_duality_check")

# Per-layer metrics: (name, unit).  ``<span>.calls``, ``<span>.s`` (time
# inside outermost spans of that name) and ``<span>.self_s`` (span time minus
# the time its child spans cover) come from spans; the rest from counters.
PER_LAYER = [
    ("lattice.enumerate_plaquettes.calls", "count"),
    ("lattice.enumerate_plaquettes.s", "s"),
    ("lattice.chain_decompose.calls", "count"),
    ("lattice.chain_decompose.self_s", "s"),
    ("lattice.site_adjacent_plaquettes.calls", "count"),
    ("lattice.site_adjacent_plaquettes.s", "s"),
    ("duality.map_hamiltonian.calls", "count"),
    ("duality.map_hamiltonian.self_s", "s"),
    ("duality.dual_lattice_gap.calls", "count"),
    ("duality.dual_lattice_gap.s", "s"),
    ("duality.full_dual_spectrum.s", "s"),
    ("duality.duality_spectrum_check.self_s", "s"),
    ("ed.HamiltonianOperator.matvec.calls", "count"),
    ("ed.HamiltonianOperator.matvec.s", "s"),
    ("ed.operator_ground_spectrum.calls", "count"),
    ("ed.operator_ground_spectrum.self_s", "s"),
    ("ed.lanczos.iterations", "count"),
    ("ed.lanczos.injections", "count"),
    ("ed.HamiltonianOperator.compile.calls", "count"),
    ("ed.HamiltonianOperator.compile.s", "s"),
    ("ed.compile.bytes_computed", "B"),
    ("ed.full_spectrum.self_s", "s"),
    ("ed.HamiltonianOperator.dense.s", "s"),
    ("ed.dense_matrix_from_terms.s", "s"),
    ("ed.expectation.calls", "count"),
    ("ed.expectation.s", "s"),
    ("freefermion.bdg_solve.open.calls", "count"),
    ("freefermion.bdg_solve.open.s", "s"),
    ("freefermion.bdg_solve.ring.calls", "count"),
    ("freefermion.bdg_solve.ring.s", "s"),
    ("freefermion.disorder_parameter.calls", "count"),
    ("freefermion.disorder_parameter.s", "s"),
    ("freefermion.zz_correlator.calls", "count"),
    ("freefermion.zz_correlator.s", "s"),
    ("freefermion.det_flops_computed", "flop"),
    ("freefermion.xx_correlator.calls", "count"),
    ("freefermion.xx_correlator.s", "s"),
    ("lapack.eigh_tridiagonal.calls", "count"),
    ("lapack.eigh_tridiagonal.s", "s"),
    ("lapack.slogdet.calls", "count"),
    ("lapack.slogdet.s", "s"),
    ("lapack.eigh.calls", "count"),
    ("lapack.eigh.s", "s"),
    ("lapack.eigvalsh.calls", "count"),
    ("lapack.eigvalsh.s", "s"),
    ("observables.ground_state_for_measurement.calls", "count"),
    ("observables.ground_state_for_measurement.self_s", "s"),
    ("observables.sx_string_expectation_dual.calls", "count"),
    ("observables.sx_string_expectation_dual.self_s", "s"),
    ("observables.plaquette_string_expectation_dual.calls", "count"),
    ("observables.plaquette_string_expectation_dual.self_s", "s"),
    ("sweep.runner.calls", "count"),
    ("sweep.runner.self_s", "s"),
    ("sweep.fit_powerlaw.s", "s"),
    ("cli.run_command.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
]

COUNTERS = ("ed.lanczos.iterations", "ed.lanczos.injections",
            "ed.compile.bytes_computed", "freefermion.det_flops_computed",
            "cli.bytes_written")


class Tracer:
    """Span and counter store for one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def wrap(self, name, fn, span_name=None, after=None):
        """Wrapper recording one span per call.

        ``span_name(args, kwargs)`` picks the span name per call when given;
        ``after(args, kwargs, result)`` updates counters once the call
        returns.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{name} called off the traced thread")
            idx = len(spans)
            spans.append([span_name(args, kwargs) if span_name else name, clock(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced


def _public_functions(mod):
    return {n: f for n, f in vars(mod).items()
            if not n.startswith("_") and inspect.isfunction(f)
            and f.__module__ == mod.__name__}


def install(tracer: Tracer) -> dict:
    """Wrap every traced callable and redirect all bindings; returns the
    original -> wrapper map."""
    ed = importlib.import_module("plaqising.ed")
    counters = tracer.counters

    def after_spectrum(args, kwargs, res):
        if res.info.get("method") == "lanczos":
            counters["ed.lanczos.iterations"] += res.info["iterations"]
            counters["ed.lanczos.injections"] += res.info["injections"]

    def after_compile(args, kwargs, _):
        _, n, terms = args  # self._compile(n, terms) is the only call form
        counters["ed.compile.bytes_computed"] += len(terms) * (1 << n) * 16

    def after_slogdet(args, kwargs, _):
        r = (args[0] if args else kwargs["a"]).shape[-1]
        counters["freefermion.det_flops_computed"] += 2 * r ** 3 / 3

    def bdg_kind(args, kwargs):
        chain = args[0] if args else kwargs["chain"]
        kind = "open" if chain.boundary.name == "OPEN_CHAIN" else "ring"
        return f"freefermion.bdg_solve.{kind}"

    special = {
        ("ed", "operator_ground_spectrum"): {"after": after_spectrum},
        ("freefermion", "bdg_solve"): {"span_name": bdg_kind},
    }
    swaps: dict = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"plaqising.{short}")
        for fname, fn in _public_functions(mod).items():
            name = "sweep.runner" if fname in RUNNERS else f"{short}.{fname}"
            swaps[fn] = tracer.wrap(name, fn, **special.get((short, fname), {}))
    op_cls = ed.HamiltonianOperator
    for attr, label in OPERATOR_METHODS.items():
        fn = vars(op_cls)[attr]
        after = after_compile if attr == "_compile" else None
        wrapped = tracer.wrap(f"ed.HamiltonianOperator.{label}", fn, after=after)
        swaps[fn] = wrapped
        setattr(op_cls, attr, wrapped)
    for modname, attr, name in LAPACK:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr)
        after = after_slogdet if attr == "slogdet" else None
        wrapped = tracer.wrap(name, fn, after=after)
        swaps[fn] = wrapped
        setattr(mod, attr, wrapped)
    _redirect_bindings(swaps)
    leftovers = unwrapped_bindings(swaps)
    if leftovers:
        raise RuntimeError("untraced bindings remain: " + ", ".join(leftovers))
    return swaps


def _plaqising_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "plaqising" or n.startswith("plaqising."))]


def _swap_in(value, by_id):
    """``value`` with originals replaced, or ``value`` itself if none occur."""
    if isinstance(value, (tuple, list)):
        new = [_swap_in(v, by_id) for v in value]
        if all(a is b for a, b in zip(new, value)):
            return value
        return type(value)(new)
    if callable(value) and id(value) in by_id:
        return by_id[id(value)]
    return value


def _redirect_bindings(swaps: dict) -> None:
    by_id = {id(fn): wrapped for fn, wrapped in swaps.items()}
    for mod in _plaqising_modules():
        for name, value in list(vars(mod).items()):
            if name.startswith("__"):
                continue
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    new = _swap_in(v, by_id)
                    if new is not v:
                        value[k] = new
            else:
                new = _swap_in(value, by_id)
                if new is not value:
                    setattr(mod, name, new)


def unwrapped_bindings(swaps: dict) -> list[str]:
    """Places in ``plaqising`` modules that still reach an original function:
    module globals, one level into dicts, tuples and lists held there, and
    the defaults and closures of every function of those modules."""
    originals = set(map(id, swaps))
    found = []

    def hit(v):
        return callable(v) and id(v) in originals

    for mod in _plaqising_modules():
        for name, value in vars(mod).items():
            if name.startswith("__"):
                continue
            inner = []
            if isinstance(value, dict):
                inner = [x for v in value.values()
                         for x in (v if isinstance(v, (tuple, list)) else (v,))]
            elif isinstance(value, (tuple, list)):
                inner = list(value)
            if hit(value) or any(hit(x) for x in inner):
                found.append(f"{mod.__name__}.{name}")
            fn = getattr(value, "__wrapped_original__", value)
            if inspect.isfunction(fn):
                held = list(fn.__defaults__ or ()) + list(
                    (fn.__kwdefaults__ or {}).values())
                held += [c.cell_contents for c in fn.__closure__ or ()
                         if _cell_filled(c)]
                if any(hit(x) for x in held):
                    found.append(f"{mod.__name__}.{name} (default or closure)")
    return found


def _cell_filled(cell) -> bool:
    try:
        cell.cell_contents
    except ValueError:
        return False
    return True


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``s`` (outermost spans only, so recursion is
    not counted twice) and ``self_s`` (minus the time of direct children)."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            agg["s"] += t1 - t0
    return out


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except ``trace.overhead_s``; layers a pass
    never called read 0."""
    totals = span_totals(spans)
    out = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            continue
        if metric in counters:
            out[metric] = counters[metric]
            continue
        span, field = metric.rsplit(".", 1)
        out[metric] = totals.get(span, {}).get(field, 0)
    return out
