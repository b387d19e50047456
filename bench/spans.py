"""Traced replay: spans at every public function of every mskglass module.

Tracing works from outside the package.  Each public function defined in one
of the layer modules is wrapped once, and every attribute of every loaded
mskglass module that is that same function object is replaced by the
wrapper; `from .rs import solve_fixed_point` leaves such copies in atline,
onersb, cli and the package itself.  A wrapper appends one span (function,
parent span, start, end, whether it raised) to flat in-memory arrays; self
time is a span's duration minus that of its direct children.  The CLI's
process pool, if it has one, is replaced by an in-process map so that no
span is lost in a worker.  The tracing overhead is reported twice: as traced
minus untraced wall time of the same replay (noisy on a shared host) and as
the span count times the measured cost of one wrapped no-op call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("quadrature", "model", "rs", "atline", "onersb", "parisi", "simulate", "cli")

# function -> statistics reported for it
TIMED = {
    "rs.fixed_point_map": ("calls", "self_s"),
    "rs.solve_fixed_point": ("calls", "self_s", "p50_ms", "p90_ms"),
    "rs.rs_functional": ("calls", "self_s"),
    "atline.at_verdict": ("calls", "self_s", "p50_ms", "p90_ms"),
    "atline.quartic_susceptibility": ("calls", "self_s"),
    "atline.at_line_beta": ("calls", "self_s"),
    "onersb.certify_rsb": ("calls", "self_s", "p50_ms"),
    "onersb.one_rsb_functional": ("calls", "self_s"),
    "quadrature.nested_expect": ("calls", "self_s"),
    "parisi.evaluate": ("calls", "self_s", "p50_ms"),
    "quadrature.gauss_hermite": ("calls", "self_s"),
    "model.validate": ("calls", "self_s"),
    "simulate.sample_disorder": ("calls", "self_s"),
    "simulate.log_partition_exact": ("calls", "self_s"),
    "simulate.overlap_histogram": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
}

# derived metric -> (unit, better)
DERIVED = {
    "rs.maps_per_solve": ("ratio", "lower"),
    "rs.iterations_per_solve": ("ratio", "lower"),
    "rs.not_converged": ("count", "lower"),
    "atline.solves_per_line_point": ("ratio", "lower"),
    "atline.bracket_failures": ("count", "lower"),
    "onersb.evals_per_certificate": ("ratio", "lower"),
    "onersb.cert_found_ratio": ("ratio", "higher"),
    "quadrature.rule_nodes": ("count", "lower"),
    "simulate.enum_configs_per_s": ("1/s", "higher"),
    "simulate.enum_bytes_computed": ("B", "lower"),
    "simulate.flips_attempted_per_s": ("1/s", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.span_cost_us": ("us", "lower"),
    "trace.overhead_est_s": ("s", "lower"),
}

STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p90_ms": "ms"}


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{fn}.{stat}", STAT_UNITS[stat], "lower") for fn, stats in TIMED.items() for stat in stats]
    return specs + [(name, unit, better) for name, (unit, better) in DERIVED.items()]


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, label: str, fn, hook=None):
        fid = len(self.labels)
        self.labels.append(label)
        fns, parents, starts, ends, raised, stack = (
            self.fn, self.parent, self.start, self.end, self.raised, self.stack
        )
        clock = time.perf_counter
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook:
                hook(self.counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper


def _solve_hook(counters, args, sol):
    counters["rs.iterations"] += sol.iterations


def _enum_hook(counters, args, result):
    counters["simulate.configs"] += 2 ** args["d"].n


def _metropolis_hook(counters, args, result):
    counters["simulate.flips"] += 2 * args["n"] * args["sweeps"] * args.get("n_disorder", 1)


def _rule_hook(counters, args, rule):
    counters["quadrature.rule_nodes"] = max(counters["quadrature.rule_nodes"], len(rule.nodes))


HOOKS = {
    "rs.solve_fixed_point": _solve_hook,
    "simulate.log_partition_exact": _enum_hook,
    "simulate.overlap_histogram": _metropolis_hook,
    "quadrature.gauss_hermite": _rule_hook,
}


def install(tracer: Tracer) -> list:
    """Replace every reference to a public layer function by its wrapper.

    Returns (module, attribute, original) triples for undoing it.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"mskglass.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                label = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, tracer.wrap(label, obj, HOOKS.get(label)))
    replaced = []
    for name, mod in list(sys.modules.items()):
        if name != "mskglass" and not name.startswith("mskglass."):
            continue
        for attr, obj in list(vars(mod).items()):
            pair = wrappers.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(mod, attr, pair[1])
                replaced.append((mod, attr, obj))
    return replaced


class SerialPool:
    """Stand-in for ProcessPoolExecutor that maps in the calling process."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def span_cost_us(calls: int = 20000, rounds: int = 5) -> float:
    """Median extra cost of one wrapped call over a bare one, in microseconds."""

    def noop():
        return None

    wrapped = Tracer().wrap("probe", noop)
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((mid - start) - (time.perf_counter() - mid)) / calls)
    return float(np.median(costs)) * 1e6


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    fn = np.frombuffer(tracer.fn, dtype=np.int32) if len(tracer.fn) else np.zeros(0, dtype=np.int32)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    raised = np.asarray(tracer.raised, dtype=bool)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child_time
    ids = {label: i for i, label in enumerate(tracer.labels)}

    def mask(label):
        return fn == ids[label] if label in ids else np.zeros(fn.size, dtype=bool)

    def calls(label):
        return int(mask(label).sum())

    def under(label, ancestor):
        """Spans of `label` with an open `ancestor` span above them."""
        target = ids.get(ancestor)
        total = 0
        for idx in np.flatnonzero(mask(label)):
            p = parent[idx]
            while p >= 0 and fn[p] != target:
                p = parent[p]
            total += p >= 0
        return total

    def ratio(num, den):
        return float(num) / den if den else 0.0

    out = {}
    for label, stats in TIMED.items():
        sel = mask(label)
        ms = dur[sel] * 1e3
        values = {
            "calls": int(sel.sum()),
            "self_s": float(self_time[sel].sum()),
            "p50_ms": float(np.percentile(ms, 50)) if ms.size else 0.0,
            "p90_ms": float(np.percentile(ms, 90)) if ms.size else 0.0,
        }
        for stat in stats:
            out[f"{label}.{stat}"] = values[stat]

    solves = calls("rs.solve_fixed_point")
    certs = calls("onersb.certify_rsb")
    enum_s = float(dur[mask("simulate.log_partition_exact")].sum())
    mc_s = float(dur[mask("simulate.overlap_histogram")].sum())
    c = tracer.counters
    cost_us = span_cost_us()
    out.update(
        {
            "rs.maps_per_solve": ratio(calls("rs.fixed_point_map"), solves),
            "rs.iterations_per_solve": ratio(c["rs.iterations"], solves - int(raised[mask("rs.solve_fixed_point")].sum())),
            "rs.not_converged": int(raised[mask("rs.solve_fixed_point")].sum()),
            "atline.solves_per_line_point": ratio(
                under("rs.solve_fixed_point", "atline.at_line_beta"), calls("atline.at_line_beta")
            ),
            "atline.bracket_failures": int(raised[mask("atline.at_line_beta")].sum()),
            "onersb.evals_per_certificate": ratio(
                under("onersb.one_rsb_functional", "onersb.certify_rsb"), certs
            ),
            "onersb.cert_found_ratio": ratio(certs - int(raised[mask("onersb.certify_rsb")].sum()), certs),
            "quadrature.rule_nodes": int(c["quadrature.rule_nodes"]),
            "simulate.enum_configs_per_s": ratio(c["simulate.configs"], enum_s),
            "simulate.enum_bytes_computed": 8 * int(c["simulate.configs"]),
            "simulate.flips_attempted_per_s": ratio(c["simulate.flips"], mc_s),
            "trace.spans": int(fn.size),
            "trace.untraced_wall_s": untraced_s,
            "trace.traced_wall_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.span_cost_us": cost_us,
            "trace.overhead_est_s": fn.size * cost_us * 1e-6,
        }
    )
    return out


def traced_replay(cli, commands, run_commands) -> dict:
    """Run the commands traced, then untraced; pool work runs in-process both times.

    The traced pass goes first so that it, not the untraced one, pays for
    building what the CLI caches (the quadrature rule).
    """
    if hasattr(cli, "ProcessPoolExecutor"):
        cli.ProcessPoolExecutor = SerialPool
    tracer = Tracer()
    replaced = install(tracer)
    start = time.perf_counter()
    outputs = run_commands(cli, commands)
    traced_s = time.perf_counter() - start
    for mod, attr, original in replaced:
        setattr(mod, attr, original)

    start = time.perf_counter()
    run_commands(cli, commands)
    untraced_s = time.perf_counter() - start
    return {"outputs": outputs, "layers": layer_metrics(tracer, untraced_s, traced_s)}
