"""Command-line surface: config ingestion, subcommands, grid scans.

One JSON config file holds the model (delta2 row-major, lambda, mode) plus
any run parameters; command-line flags override file fields, and a file key
that names no field is refused.  Every output embeds the resolved config and
the library version so a result file is a complete experiment record.  CSV
floats carry 17 significant digits so regression baselines round-trip
bit-faithfully.  Grid scans run in one process, `phase-diagram` one batch per
h row and `at-line` one batch over all h, and write their rows in grid order
(h outer, beta inner).

Exit codes: 0 ok, 1 usage/config error (an input outside the supported model
class or range included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .atline import ATReport, Verdict, at_line_betas, at_verdicts
from .errors import MskGlassError, NotConverged, CertificateNotFound, Unsupported
from .model import VALIDATION_MODES, ModelSpec, TempField, validate
from .onersb import OneRSBCertificate, certify_points
from .parisi import ParisiParams, evaluate as parisi_value
from .quadrature import DEFAULT_ORDER, gauss_hermite
from .rs import rs_functional, solve_points
from .simulate import free_energy_exact, overlap_histogram

_log = logging.getLogger("mskglass")
_BLOCK_POINTS = 64  # phase-diagram points solved and certified as one batch; longer h rows run in blocks


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


# flag text -> config value


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _range_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected min,max,steps")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _matrix_rows(text: str) -> list[list[float]]:
    return [[float(tok) for tok in row.split(",") if tok.strip()] for row in text.split(";")]


# config value -> the value a command reads; TypeError/ValueError on bad input


def _real(value) -> float:
    """A number as float; booleans, strings and anything else that JSON does not write as a number are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value) -> np.ndarray:
    values = np.asarray(value, dtype=object)  # each entry read by _real
    return np.array([_real(v) for v in values.flat]).reshape(values.shape)


def _count(value) -> int:
    """An integral number as int; booleans and fractional values are refused."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def _range(value) -> np.ndarray:
    """The values of an inclusive (min, max, steps) range of positive numbers.

    steps == 1 denotes the single point min (min == max allowed there);
    multi-step ranges require min < max.
    """
    lo, hi, steps = value
    lo, hi, steps = _real(lo), _real(hi), _count(steps)
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > 1 and not lo < hi:
        raise ValueError("min must be < max for multi-step ranges")
    if not (lo > 0 and math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("values must be positive and finite")
    return np.array([lo]) if steps == 1 else np.linspace(lo, hi, steps)


def _mode(value) -> str:
    if value not in VALIDATION_MODES:
        raise ValueError(f"expected one of {', '.join(VALIDATION_MODES)}")
    return value


def _path(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a file path")
    return value


def _rule(value):
    """The Gauss-Hermite rule of the given order."""
    return gauss_hermite(_count(value))


_REQUIRED = object()

_ALL = ("solve-rs", "at-line", "phase-diagram", "certify", "parisi-eval", "mc-free-energy", "overlap-hist")
_POINT = ("solve-rs", "certify", "parisi-eval", "mc-free-energy", "overlap-hist")
_QUADRATURE = ("solve-rs", "at-line", "phase-diagram", "certify", "parisi-eval")
_FINITE_N = ("mc-free-energy", "overlap-hist")


class Field(NamedTuple):
    parse: Callable  # flag text -> config value
    convert: Callable  # config value -> the value commands read
    default: object  # converted like a given value; None stays None
    commands: tuple  # the subcommands that read the field and take its flag
    help: Optional[str] = None


# A field's flag is "--" + its key, lowercase, "_" -> "-".  Flags overlay the
# file fields in table order, which fixes the key order of the recorded config.
FIELDS = {
    "delta2": Field(_float_list, _floats, _REQUIRED, _ALL, "row-major variance entries, comma-separated"),
    "beta": Field(float, _real, _REQUIRED, _POINT),
    "h": Field(float, _real, 0.0, _POINT),
    "lambda": Field(_float_list, _floats, _REQUIRED, _ALL, "species proportions, comma-separated"),
    "mode": Field(str, _mode, "convex", _ALL, " | ".join(VALIDATION_MODES)),
    "order": Field(int, _rule, DEFAULT_ORDER, _QUADRATURE, f"quadrature order (default {DEFAULT_ORDER})"),
    "seed": Field(int, _count, 0, _FINITE_N),
    "out": Field(str, _path, None, _ALL, "output path (default stdout)"),
    "beta_range": Field(_range_triple, _range, (0.2, 1.2, 10), ("phase-diagram",), "min,max,steps"),
    "h_range": Field(_range_triple, _range, (0.1, 1.0, 10), ("at-line", "phase-diagram"), "min,max,steps"),
    "N": Field(int, _count, _REQUIRED, _FINITE_N, "system size N (<= 24 exact, <= 256 Metropolis)"),
    "sweeps": Field(int, _count, 200, ("overlap-hist",)),
    "n_disorder": Field(int, _count, 1, _FINITE_N),
    "zeta": Field(_float_list, _floats, (), ("parisi-eval",), "cluster weights, comma-separated (empty for k=0)"),
    "q": Field(_matrix_rows, _floats, _REQUIRED, ("parisi-eval",), "overlap ladder rows, ';' between species"),
}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


def _resolve_config(args) -> tuple[dict, dict]:
    """(recorded config, converted value of each field the command reads).

    The record holds the file fields with the flags overlaid.  An absent or
    null field takes its default; a missing required field, or a value the
    converter rejects, is a config error (exit 1).
    """
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = [key for key in cfg if key not in FIELDS]
        if unknown:
            raise ConfigError(f"unknown config field(s): {', '.join(map(repr, unknown))}")
    values = {}
    for key, field in FIELDS.items():
        if args.command not in field.commands:
            continue  # a command takes only the flags of the fields it reads
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
        raw = field.default if cfg.get(key) is None else cfg[key]
        if raw is _REQUIRED:
            raise ConfigError(f"missing {key} field")
        try:
            values[key] = None if raw is None else field.convert(raw)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{key} field {raw!r} is unusable: {exc}") from exc
    return cfg, values


def _model_spec(v: dict) -> ModelSpec:
    """The model, validated under the `mode` field."""
    lam, delta2, m = v["lambda"], v["delta2"], v["lambda"].size
    if delta2.ndim == 1:
        if delta2.size != m * m:
            raise ConfigError(f"delta2 must hold {m * m} row-major entries")
        delta2 = delta2.reshape(m, m)
    try:
        spec = ModelSpec(delta2=delta2, lam=lam)
    except (ValueError, MskGlassError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    failed = validate(spec, v["mode"])
    if failed:
        raise ConfigError(f"model fails {v['mode']!r} validation: {', '.join(failed)}")
    return spec


def _temp_field(v: dict) -> TempField:
    try:
        return TempField(beta=v["beta"], h=v["h"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_n(fn, *args, **kwargs):
    """Run a finite-N routine; its count and size checks (ValueError) are config errors."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _single(results: list):
    """The one entry of a batch entry point's result list for one point, raised if it is an error."""
    (result,) = results
    if isinstance(result, MskGlassError):
        raise result
    return result


def _write(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc


def _emit_json(cfg: dict, result: dict, out: str | None) -> None:
    envelope = {"version": __version__, "config": _jsonable(cfg), "result": _jsonable(result)}
    _write(json.dumps(envelope, indent=2) + "\n", out)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    value = float(value)
    if math.isnan(value):
        return ""
    return f"{value:.17g}"


def _emit_csv(cfg: dict, columns, rows, out: str | None) -> None:
    lines = [f"# version: {__version__}", f"# config: {json.dumps(_jsonable(cfg))}"]
    lines.append(",".join(columns))
    for row in rows:
        if isinstance(row, str):  # pre-formatted section marker
            lines.append(row)
        else:
            lines.append(",".join(_fmt(v) for v in row))
    _write("\n".join(lines) + "\n", out)


# ----------------------------------------------------------------------
# subcommands: each takes the recorded config and the converted fields
# ----------------------------------------------------------------------


def cmd_solve_rs(cfg: dict, v: dict) -> int:
    spec, tf, rule = _model_spec(v), _temp_field(v), v["order"]
    sol = _single(solve_points(spec, tf, rule))
    result = {
        "q_star": sol.q_star,
        "coupling": sol.coupling,
        "residual": sol.residual,
        "error": sol.error,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "on_boundary": sol.on_boundary,
        "candidates": [c for c in sol.candidates],
        "guaranteed_unique": sol.guaranteed_unique,
        "rs_value": rs_functional(spec, tf, sol.q_star[None], rule)[0],
    }
    _emit_json(cfg, result, v["out"])
    return 0


def cmd_at_line(cfg: dict, v: dict) -> int:
    spec, rule, h_values = _model_spec(v), v["order"], v["h_range"]

    rows = []
    previous = None  # beta_m of the row before, if it is ok
    spacing = h_values[1] - h_values[0] if h_values.size > 1 else 0.0
    for h, beta in zip(h_values, at_line_betas(spec, h_values, rule)):
        if isinstance(beta, MskGlassError):
            status = "bracket-failure" if isinstance(beta, NotConverged) else "numerical-failure"
            _log.warning("%s at h = %.6g: %s", status, h, beta)
            rows.append((h, math.nan, status))
            previous = None
            continue
        rows.append((h, beta, "ok"))
        jump = abs(beta - previous) if previous is not None else 0.0
        if jump > 10.0 * spacing:
            _log.warning("boundary jump %.3g at h = %.6g exceeds 10x the grid resolution", jump, h)
        previous = beta
    _emit_csv(cfg, ("h", "beta_m", "status"), rows, v["out"])
    return 0


def _phase_rows(spec: ModelSpec, tf: TempField, rule) -> list:
    """Phase-diagram rows (beta, h, verdict, beta2_m, gap) of a batch of points: a failed verdict is a
    numerical-failure row, and a gap stays empty where none is certified (quadratically small near the line)."""
    reports = at_verdicts(spec, tf, rule)
    rsb = [i for i, r in enumerate(reports) if isinstance(r, ATReport) and r.verdict == Verdict.RSB_CERTIFIED]
    certificates = certify_points(spec, TempField(beta=tf.beta[rsb], h=tf.h[rsb]), [reports[i] for i in rsb], rule)
    gaps = {i: c.gap for i, c in zip(rsb, certificates) if isinstance(c, OneRSBCertificate)}
    rows = []
    for i, (beta, h, report) in enumerate(zip(tf.beta, tf.h, reports)):
        if isinstance(report, MskGlassError):
            _log.warning("numerical-failure at (beta, h) = (%.6g, %.6g): %s", beta, h, report)
            rows.append((beta, h, "numerical-failure", None, None))
        else:
            rows.append((beta, h, report.verdict.value, report.beta2_m, gaps.get(i)))
    return rows


def cmd_phase_diagram(cfg: dict, v: dict) -> int:
    spec, rule, betas = _model_spec(v), v["order"], v["beta_range"]
    rows: list = []
    for h in v["h_range"]:
        blocks = [betas[at : at + _BLOCK_POINTS] for at in range(0, betas.size, _BLOCK_POINTS)]
        h_slice = [row for b in blocks for row in _phase_rows(spec, TempField(beta=b, h=np.full(b.size, h)), rule)]
        verdicts = [row[2] for row in h_slice if row[2] != "numerical-failure"]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        if flips > 1:
            _log.warning(
                "verdict flips %d times along the h-slice starting at row %d; expected a single transition",
                flips,
                len(rows),
            )
        rows += h_slice
    _emit_csv(cfg, ("beta", "h", "verdict", "beta2_m", "gap"), rows, v["out"])
    return 0


def cmd_certify(cfg: dict, v: dict) -> int:
    spec, tf, rule = _model_spec(v), _temp_field(v), v["order"]
    report = _single(at_verdicts(spec, tf, rule))
    if report.verdict != Verdict.RSB_CERTIFIED:
        raise CertificateNotFound(
            f"verdict at (beta={v['beta']}, h={v['h']}) is {report.verdict.value}; "
            "no symmetry-breaking certificate exists below the phase line"
        )
    cert = _single(certify_points(spec, tf, [report], rule))
    result = {
        "verdict": report.verdict.value,
        "beta2_m": report.beta2_m,
        "witness_x": report.witness_x,
        "epsilon": cert.epsilon,
        "zeta": cert.zeta,
        "value": cert.value,
        "rs_value": cert.rs_value,
        "gap": cert.gap,
    }
    _emit_json(cfg, result, v["out"])
    return 0


def cmd_parisi_eval(cfg: dict, v: dict) -> int:
    spec, tf, rule = _model_spec(v), _temp_field(v), v["order"]
    zeta, q = v["zeta"], v["q"]
    if zeta.ndim > 1 or q.ndim > 2:
        raise ConfigError("invalid functional parameters: zeta must be a vector and q a matrix")
    try:
        params = ParisiParams(zeta=zeta, q=q)
    except (ValueError, MskGlassError) as exc:
        raise ConfigError(f"invalid functional parameters: {exc}") from exc
    result = {"k": params.k, "value": parisi_value(spec, tf, params, rule)[0, 0]}
    _emit_json(cfg, result, v["out"])
    return 0


def cmd_mc_free_energy(cfg: dict, v: dict) -> int:
    spec, tf = _model_spec(v), _temp_field(v)
    n, n_disorder, seed = v["N"], v["n_disorder"], v["seed"]
    estimate = _finite_n(free_energy_exact, spec, tf, n=n, n_disorder=n_disorder, seed=seed)
    result = {"mean": estimate.mean, "stderr": estimate.stderr, "N": n, "n_disorder": n_disorder, "seed": seed}
    _emit_json(cfg, result, v["out"])
    return 0


def cmd_overlap_hist(cfg: dict, v: dict) -> int:
    spec, tf = _model_spec(v), _temp_field(v)
    hist = _finite_n(overlap_histogram, spec, tf, n=v["N"], sweeps=v["sweeps"], n_disorder=v["n_disorder"],
                     seed=v["seed"])
    rows: list = [f"# acceptance: {_fmt(hist.acceptance)}"]
    for s in range(spec.m):
        rows.append(f"# species {s}: mean {_fmt(hist.means[s])} std {_fmt(hist.stds[s])}")
        for b in range(hist.counts.shape[1]):
            rows.append((hist.bin_edges[b], hist.bin_edges[b + 1], int(hist.counts[s, b])))
    _emit_csv(cfg, ("bin_left", "bin_right", "count"), rows, v["out"])
    if v["out"]:
        _emit_json(
            cfg,
            {
                "means": hist.means,
                "stds": hist.stds,
                "n_measurements": hist.n_measurements,
                "acceptance": hist.acceptance,
                "csv": v["out"],
            },
            None,
        )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

COMMANDS = {
    "solve-rs": (cmd_solve_rs, "solve the self-consistency system at one (beta, h)"),
    "at-line": (cmd_at_line, "phase boundary beta(h) over an h grid"),
    "phase-diagram": (cmd_phase_diagram, "verdict grid over (beta, h)"),
    "certify": (cmd_certify, "one-step symmetry-breaking certificate at one (beta, h)"),
    "parisi-eval": (cmd_parisi_eval, "evaluate the generic k-level functional"),
    "mc-free-energy": (cmd_mc_free_energy, "exact-enumeration quenched free energy"),
    "overlap-hist": (cmd_overlap_hist, "Metropolis overlap histograms"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, taking the flags of the fields it reads; built once per process."""
    parser = argparse.ArgumentParser(prog="mskglass", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True
    for name, (func, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its fields")
        for key, field in FIELDS.items():
            if name in field.commands:
                p.add_argument("--" + key.lower().replace("_", "-"), dest=key, type=field.parse, help=field.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors; the contract here is exit 1
        return 1 if exc.code else 0
    try:
        return args.func(*_resolve_config(args))
    except (ConfigError, Unsupported) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MskGlassError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
