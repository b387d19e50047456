"""Command-line surface: config ingestion, subcommands, grid scans.

One JSON config file holds the model (M, delta2 row-major, lambda, mode) plus
any run parameters; command-line flags override file fields.  Every output
embeds the resolved config and the library version so a result file is a
complete experiment record.  CSV floats carry 17 significant digits so
regression baselines round-trip bit-faithfully.  Grid scans run serially in
one process and write their rows in grid order (h outer, beta inner).

Exit codes: 0 ok, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .atline import Verdict, at_line_beta, at_verdict
from .errors import MskGlassError, NotConverged, CertificateNotFound
from .model import VALIDATION_MODES, ModelSpec, TempField, two_species_standard, validate
from .onersb import certify_rsb
from .parisi import ParisiParams, evaluate as parisi_value
from .quadrature import DEFAULT_ORDER, gauss_hermite
from .rs import rs_functional, solve_fixed_point
from .simulate import free_energy_exact, overlap_histogram

_log = logging.getLogger("mskglass")


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 1."""


@dataclass(frozen=True)
class ScanGrid:
    """Inclusive (min, max, steps) ranges of positive values for the phase-plane scans.

    steps == 1 denotes a single point at min (min == max allowed there);
    multi-step ranges require min < max.  `beta_range` is None for a scan
    over h alone.
    """

    beta_range: Optional[tuple]
    h_range: tuple

    def __post_init__(self):
        for name, rng in (("beta_range", self.beta_range), ("h_range", self.h_range)):
            if rng is None:
                continue
            lo, hi, steps = rng
            if steps < 1:
                raise ConfigError(f"{name}: steps must be >= 1")
            if steps > 1 and not lo < hi:
                raise ConfigError(f"{name}: min must be < max for multi-step ranges")
            if not (lo > 0 and math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"{name}: values must be positive and finite")

    @staticmethod
    def _values(rng) -> np.ndarray:
        lo, hi, steps = rng
        return np.array([lo]) if steps == 1 else np.linspace(lo, hi, int(steps))

    def beta_values(self) -> np.ndarray:
        return self._values(self.beta_range)

    def h_values(self) -> np.ndarray:
        return self._values(self.h_range)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _range_triple(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected min,max,steps")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _matrix_rows(text: str) -> list[list[float]]:
    return [[float(tok) for tok in row.split(",") if tok.strip()] for row in text.split(";")]


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
    if isinstance(obj, Verdict):
        return obj.value
    return obj


_FLAG_KEYS = (
    ("beta", "beta"),
    ("h", "h"),
    ("lam", "lambda"),
    ("mode", "mode"),
    ("order", "order"),
    ("seed", "seed"),
    ("out", "out"),
    ("beta_range", "beta_range"),
    ("h_range", "h_range"),
    ("n", "N"),
    ("sweeps", "sweeps"),
    ("n_disorder", "n_disorder"),
    ("bins", "bins"),
    ("zeta", "zeta"),
    ("q", "q"),
    ("eps_grid", "eps_grid"),
    ("zeta_grid", "zeta_grid"),
)


def _resolve_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    if getattr(args, "delta2", None) is not None:
        cfg["delta2"] = args.delta2
    for attr, key in _FLAG_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            cfg[key] = value
    return cfg


_REQUIRED = object()


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=float)


def _count(value) -> int:
    """An integral number as int; booleans and fractional values are refused."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError("expected an integer")
    return int(value)


def _range(value) -> tuple:
    lo, hi, steps = value
    return float(lo), float(hi), _count(steps)


def _get(cfg: dict, key: str, convert, default=_REQUIRED):
    """cfg[key] through `convert`, or `default` when the field is absent.

    A missing field without a default, or a value `convert` rejects, is a
    config error (exit 1), whether it came from a flag or the config file.
    """
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing {key} field")
        return default
    try:
        return convert(cfg[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} field {cfg[key]!r} is unreadable: {exc}") from exc


def _model_spec(cfg: dict) -> ModelSpec:
    lam = _get(cfg, "lambda", _floats)
    delta2 = _get(cfg, "delta2", _floats)
    m = _get(cfg, "M", _count, lam.size)
    if m != lam.size:
        raise ConfigError(f"M = {m} but lambda has {lam.size} entries")
    if delta2.ndim == 1:
        if delta2.size != m * m:
            raise ConfigError(f"delta2 must hold {m * m} row-major entries")
        delta2 = delta2.reshape(m, m)
    try:
        spec = ModelSpec(delta2=delta2, lam=lam)
    except (ValueError, MskGlassError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    mode = cfg.get("mode", "convex")
    try:
        report = validate(spec, mode)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not report.ok:
        failed = ", ".join(c.name for c in report.failed())
        raise ConfigError(f"model fails {mode!r} validation: {failed}")
    return spec


def _require_standard(spec: ModelSpec) -> None:
    if not two_species_standard(spec):
        raise ConfigError(
            "this command requires the two-species standard normalization "
            "(unit cross variance, variance product > 1) or its classical reduction"
        )


def _temp_field(cfg: dict) -> TempField:
    beta, h = _get(cfg, "beta", float), _get(cfg, "h", float, 0.0)
    try:
        return TempField(beta=beta, h=h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _rule(cfg: dict):
    order = _get(cfg, "order", _count, DEFAULT_ORDER)
    try:
        return gauss_hermite(order)
    except ValueError as exc:
        raise ConfigError(f"quadrature order {order} is unusable: {exc}") from exc


def _finite_n(fn, *args, **kwargs):
    """Run a finite-N routine; its count checks (plain ValueError) are config errors."""
    try:
        return fn(*args, **kwargs)
    except MskGlassError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _emit_json(cfg: dict, result: dict, out: str | None) -> None:
    envelope = {"version": __version__, "config": _jsonable(cfg), "result": _jsonable(result)}
    text = json.dumps(envelope, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


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
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_solve_rs(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    tf = _temp_field(cfg)
    rule = _rule(cfg)
    sol = solve_fixed_point(spec, tf, rule)
    result = {
        "q_star": sol.q_star,
        "coupling": sol.coupling,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "on_boundary": sol.on_boundary,
        "candidates": [c for c in sol.candidates],
        "guaranteed_unique": sol.guaranteed_unique,
        "rs_value": rs_functional(spec, tf, sol.q_star, rule),
    }
    _emit_json(cfg, result, cfg.get("out"))
    return 0


def cmd_at_line(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    _require_standard(spec)
    grid = ScanGrid(beta_range=None, h_range=_get(cfg, "h_range", _range, (0.1, 1.0, 10)))
    rule = _rule(cfg)
    h_values = grid.h_values()

    rows = []
    previous = None
    spacing = h_values[1] - h_values[0] if h_values.size > 1 else 0.0
    for h in h_values:
        try:
            beta = at_line_beta(spec, float(h), rule)
            rows.append((h, beta, "ok"))
            if previous is not None and spacing > 0 and abs(beta - previous) > 10.0 * spacing:
                _log.warning(
                    "boundary jump %.3g at h = %.6g exceeds 10x the grid resolution",
                    abs(beta - previous),
                    h,
                )
            previous = beta
        except NotConverged:
            rows.append((h, math.nan, "bracket-failure"))
            previous = None
    _emit_csv(cfg, ("h", "beta_m", "status"), rows, cfg.get("out"))
    return 0


def _phase_point(spec: ModelSpec, tf: TempField, rule) -> tuple:
    """One phase-diagram row: (beta, h, verdict, beta2_m, gap)."""
    report = at_verdict(spec, tf, rule)
    gap = None
    if report.verdict == Verdict.RSB_CERTIFIED:
        try:
            gap = certify_rsb(spec, tf, report, rule).gap
        except CertificateNotFound:
            pass  # quadratically small near the line; left empty
    return tf.beta, tf.h, report.verdict.value, report.beta2_m, gap


def cmd_phase_diagram(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    _require_standard(spec)
    grid = ScanGrid(
        beta_range=_get(cfg, "beta_range", _range, (0.2, 1.2, 10)),
        h_range=_get(cfg, "h_range", _range, (0.1, 1.0, 10)),
    )
    rule = _rule(cfg)
    betas = grid.beta_values()
    rows: list = []
    for h in grid.h_values():
        h_slice = [_phase_point(spec, TempField(beta=float(beta), h=float(h)), rule) for beta in betas]
        flips = sum(1 for a, b in zip(h_slice, h_slice[1:]) if a[2] != b[2])
        if flips > 1:
            _log.warning(
                "verdict flips %d times along the h-slice starting at row %d; expected a single transition",
                flips,
                len(rows),
            )
        rows += h_slice
    _emit_csv(cfg, ("beta", "h", "verdict", "beta2_m", "gap"), rows, cfg.get("out"))
    return 0


def cmd_certify(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    _require_standard(spec)
    tf = _temp_field(cfg)
    rule = _rule(cfg)
    report = at_verdict(spec, tf, rule)
    if report.verdict != Verdict.RSB_CERTIFIED:
        raise CertificateNotFound(
            f"verdict at (beta={tf.beta}, h={tf.h}) is {report.verdict.value}; "
            "no symmetry-breaking certificate exists below the phase line"
        )
    eps_grid = _get(cfg, "eps_grid", _floats, None)
    zeta_grid = _get(cfg, "zeta_grid", _floats, None)
    cert = certify_rsb(spec, tf, report, rule, eps_grid=eps_grid, zeta_grid=zeta_grid)
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
    _emit_json(cfg, result, cfg.get("out"))
    return 0


def cmd_parisi_eval(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    tf = _temp_field(cfg)
    rule = _rule(cfg)
    q = _get(cfg, "q", _floats)
    zeta = _get(cfg, "zeta", _floats, np.empty(0))
    if zeta.ndim > 1 or q.ndim > 2:
        raise ConfigError("invalid functional parameters: zeta must be a vector and q a matrix")
    try:
        params = ParisiParams(zeta=zeta, q=q)
    except (ValueError, MskGlassError) as exc:
        raise ConfigError(f"invalid functional parameters: {exc}") from exc
    result = {"k": params.k, "value": parisi_value(spec, tf, params, rule)}
    _emit_json(cfg, result, cfg.get("out"))
    return 0


def cmd_mc_free_energy(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    tf = _temp_field(cfg)
    n, n_disorder, seed = _get(cfg, "N", _count), _get(cfg, "n_disorder", _count, 1), _get(cfg, "seed", _count, 0)
    estimate = _finite_n(free_energy_exact, spec, tf, n=n, n_disorder=n_disorder, seed=seed)
    result = {"mean": estimate.mean, "stderr": estimate.stderr, "N": n, "n_disorder": n_disorder, "seed": seed}
    _emit_json(cfg, result, cfg.get("out"))
    return 0


def cmd_overlap_hist(args) -> int:
    cfg = _resolve_config(args)
    spec = _model_spec(cfg)
    tf = _temp_field(cfg)
    hist = _finite_n(
        overlap_histogram,
        spec,
        tf,
        n=_get(cfg, "N", _count),
        sweeps=_get(cfg, "sweeps", _count, 200),
        n_disorder=_get(cfg, "n_disorder", _count, 1),
        seed=_get(cfg, "seed", _count, 0),
        bins=_get(cfg, "bins", _count, 40),
    )
    rows: list = [f"# acceptance: {_fmt(hist.acceptance)}"]
    for s in range(spec.m):
        rows.append(f"# species {s}: mean {_fmt(hist.means[s])} std {_fmt(hist.stds[s])}")
        for b in range(hist.counts.shape[1]):
            rows.append((hist.bin_edges[b], hist.bin_edges[b + 1], int(hist.counts[s, b])))
    _emit_csv(cfg, ("bin_left", "bin_right", "count"), rows, cfg.get("out"))
    if cfg.get("out"):
        _emit_json(
            cfg,
            {
                "means": hist.means,
                "stds": hist.stds,
                "n_measurements": hist.n_measurements,
                "acceptance": hist.acceptance,
                "csv": cfg.get("out"),
            },
            None,
        )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--beta", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--delta2", type=_float_list, help="row-major variance entries, comma-separated")
    p.add_argument("--lambda", dest="lam", type=_float_list, help="species proportions, comma-separated")
    p.add_argument("--mode", choices=VALIDATION_MODES)
    p.add_argument("--order", type=int, help="quadrature order (default 61)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mskglass", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    p = sub.add_parser("solve-rs", help="solve the self-consistency system at one (beta, h)")
    _add_common(p)
    p.set_defaults(func=cmd_solve_rs)

    p = sub.add_parser("at-line", help="phase boundary beta(h) over an h grid")
    _add_common(p)
    p.add_argument("--h-range", dest="h_range", type=_range_triple, help="min,max,steps")
    p.set_defaults(func=cmd_at_line)

    p = sub.add_parser("phase-diagram", help="verdict grid over (beta, h)")
    _add_common(p)
    p.add_argument("--beta-range", dest="beta_range", type=_range_triple, help="min,max,steps")
    p.add_argument("--h-range", dest="h_range", type=_range_triple, help="min,max,steps")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("certify", help="one-step symmetry-breaking certificate at one (beta, h)")
    _add_common(p)
    p.add_argument("--eps-grid", dest="eps_grid", type=_float_list)
    p.add_argument("--zeta-grid", dest="zeta_grid", type=_float_list)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("parisi-eval", help="evaluate the generic k-level functional")
    _add_common(p)
    p.add_argument("--zeta", type=_float_list, help="cluster weights, comma-separated (empty for k=0)")
    p.add_argument("--q", type=_matrix_rows, help="overlap ladder rows, ';' between species")
    p.set_defaults(func=cmd_parisi_eval)

    p = sub.add_parser("mc-free-energy", help="exact-enumeration quenched free energy")
    _add_common(p)
    p.add_argument("--n", type=int, help="system size N (<= 24)")
    p.add_argument("--n-disorder", dest="n_disorder", type=int)
    p.set_defaults(func=cmd_mc_free_energy)

    p = sub.add_parser("overlap-hist", help="Metropolis overlap histograms")
    _add_common(p)
    p.add_argument("--n", type=int, help="system size N (<= 256)")
    p.add_argument("--sweeps", type=int)
    p.add_argument("--n-disorder", dest="n_disorder", type=int)
    p.add_argument("--bins", type=int)
    p.set_defaults(func=cmd_overlap_hist)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MskGlassError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
