"""Oracle checks of CLI outputs, one operation at a time.

`check(argv, output)` reads what was asked from the command line itself and
compares what the command printed with the references in oracle.py.  One
operation is one grid point (phase-diagram), one h value (at-line), one
disorder sample (mc-free-energy, overlap-hist) or one command (solve-rs,
certify, parisi-eval).  An operation fails on a nonzero exit code, a
`bracket-failure` row, a verdict against the oracle's sign of
beta^2 - beta2_m, a certificate the oracle does not confirm, or a number
outside its tolerance.  An RSB-certified grid point without a certificate is
counted as `missing`: a shortfall the CLI documents rather than a failure.

Tolerances are absolute and sit above the order-61 Gauss-Hermite error the
package shows on these inputs, so that a correct but imprecise answer
passes while a wrong one does not; the measured deviations themselves are
reported through `max_err`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

BETA2M_TOL = 3e-2  # phase-diagram and certify beta2_m; 9.9e-3 seen at beta = 1.6
BETAM_TOL = 2e-3  # at-line beta_m; 1.9e-4 seen at h = 1.0
RS_TOL = 1e-4  # solve-rs q* and value, certify rs_value and one-step value
GAP_TOL = 1e-5  # certify gap against the oracle's gap at the named point
PARISI_TOL = 1e-4  # parisi-eval k = 1, 2
ENUM_TOL = 1e-9  # mc-free-energy mean and stderr (exact arithmetic both sides)

BAND_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metropolis_band.json")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    missing: int = 0
    max_err: float = oracle.REF_TOL
    problems: list = field(default_factory=list)

    def op(self, label: str, reasons, count: int = 1) -> None:
        """Record `count` operations that fail together on any given reason."""
        self.attempted += count
        reasons = [r for r in reasons if r]
        if reasons:
            self.failed += count
            self.problems.append(f"{label} (x{count}): {'; '.join(reasons)}")

    def compare(self, what: str, value, ref: float, tol: float, headline: bool = True):
        """Reason string if value misses ref by more than tol; tracks max_err."""
        if value is None or not math.isfinite(float(value)):
            return f"{what} missing"
        err = abs(float(value) - ref)
        if headline:
            self.max_err = max(self.max_err, err)
        return f"{what} off by {err:.3g} (tol {tol:g})" if err > tol else None

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.missing += other.missing
        self.max_err = max(self.max_err, other.max_err)
        self.problems.extend(other.problems)


def flags(argv) -> dict:
    out, key = {}, None
    for tok in argv[1:]:
        if tok.startswith("--"):
            key = tok[2:]
            out[key] = True
        elif key is not None:
            out[key] = tok
            key = None
    return out


def grid(text: str) -> np.ndarray:
    lo, hi, steps = text.split(",")
    return np.array([float(lo)]) if int(steps) == 1 else np.linspace(float(lo), float(hi), int(steps))


def csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def num(text):
    return float(text) if text not in ("", None) else None


def result_json(text: str) -> dict:
    return json.loads(text)["result"]


def check(argv, output) -> Tally:
    """Check one command's output (dict with exit, stdout) against the oracle."""
    tally = Tally()
    f = flags(argv)
    cmd = argv[0]
    n_ops = {
        "phase-diagram": lambda: grid(f["beta-range"]).size * grid(f["h-range"]).size,
        "at-line": lambda: grid(f["h-range"]).size,
        "mc-free-energy": lambda: int(f.get("n-disorder", 1)),
        "overlap-hist": lambda: int(f.get("n-disorder", 1)),
    }.get(cmd, lambda: 1)()
    if output.get("exit") != 0:
        tally.op(cmd, [f"exit code {output.get('exit')}"], n_ops)
        return tally
    try:
        CHECKS[cmd](tally, f, output["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparseable output
        done = tally.attempted
        tally.op(cmd, [f"output not understood: {exc!r}"], n_ops - done)
    return tally


def _phase_diagram(tally: Tally, f: dict, stdout: str) -> None:
    betas, hs = grid(f["beta-range"]), grid(f["h-range"])
    bb, hh = np.meshgrid(betas, hs)  # CLI order: h outer, beta inner
    b2m, margin = oracle.phase_points(bb.ravel(), hh.ravel())
    header, rows = csv_rows(stdout)
    col = {name: i for i, name in enumerate(header)}
    for i, (beta, h) in enumerate(zip(bb.ravel(), hh.ravel())):
        label = f"phase-diagram(beta={beta:.6g}, h={h:.6g})"
        if i >= len(rows):
            tally.op(label, ["row missing"])
            continue
        row = rows[i]
        verdict, gap = row[col["verdict"]], num(row[col["gap"]])
        reasons = [
            None if abs(num(row[col["beta"]]) - beta) <= 1e-12 and abs(num(row[col["h"]]) - h) <= 1e-12
            else "row is not the requested grid point",
            tally.compare("beta2_m", num(row[col["beta2_m"]]), b2m[i], BETA2M_TOL),
        ]
        m = margin[i]
        if verdict == "RSB-certified":
            reasons.append("RSB verdict below the line" if m < -oracle.REF_TOL else None)
            if gap is None:
                tally.missing += 1
            elif not gap > 0:
                reasons.append(f"certificate gap {gap} is not positive")
        elif verdict == "RS-consistent":
            reasons.append("RS verdict above the line" if m > oracle.REF_TOL else None)
            reasons.append("certificate below the line" if gap is not None else None)
        elif verdict == "indeterminate":
            reasons.append("indeterminate far from the line" if abs(m) > BETA2M_TOL else None)
        else:
            reasons.append(f"unknown verdict {verdict!r}")
        tally.op(label, reasons)


def _at_line(tally: Tally, f: dict, stdout: str) -> None:
    hs = grid(f["h-range"])
    header, rows = csv_rows(stdout)
    col = {name: i for i, name in enumerate(header)}
    for i, h in enumerate(hs):
        label = f"at-line(h={h:.6g})"
        if i >= len(rows):
            tally.op(label, ["row missing"])
            continue
        row = rows[i]
        if row[col["status"]] != "ok":
            tally.op(label, [f"status {row[col['status']]}"])
            continue
        tally.op(
            label,
            [
                None if abs(num(row[col["h"]]) - h) <= 1e-12 else "row is not the requested h",
                tally.compare("beta_m", num(row[col["beta_m"]]), oracle.at_line_beta(float(h)), BETAM_TOL),
            ],
        )


def _point(f: dict):
    beta, h = float(f["beta"]), float(f["h"])
    q, cc = oracle.rs_overlaps(np.array(beta), np.array(h))
    return beta, h, q, cc


def _solve_rs(tally: Tally, f: dict, stdout: str) -> None:
    beta, h, q, _ = _point(f)
    res = result_json(stdout)
    qs = res["q_star"]
    tally.op(
        "solve-rs",
        [tally.compare(f"q_star[{s}]", qs[s], q[s], RS_TOL) for s in range(2)]
        + [tally.compare("rs_value", res["rs_value"], oracle.rs_value(beta, h, q), RS_TOL)],
    )


def _certify(tally: Tally, f: dict, stdout: str) -> None:
    beta, h, q, cc = _point(f)
    res = result_json(stdout)
    b2m = float(oracle.beta2_m(np.array(beta), np.array(h), cc))
    reasons = [
        None if res.get("verdict") == "RSB-certified" else f"verdict {res.get('verdict')}",
        "oracle puts the point below the line" if beta * beta <= b2m else None,
        tally.compare("beta2_m", res.get("beta2_m"), b2m, BETA2M_TOL),
    ]
    gap = res.get("gap")
    if gap is None or not gap > 0:
        reasons.append(f"certificate gap {gap!r} is not positive")
    else:
        x = np.asarray(res["witness_x"], dtype=float) / oracle.LAM
        x = x / x.max()
        zeta = float(res["zeta"])
        rs = oracle.rs_value(beta, h, q)
        one = oracle.one_step_value(beta, h, q, q + float(res["epsilon"]) * x, zeta)
        reasons += [
            tally.compare("rs_value", res["rs_value"], rs, RS_TOL),
            tally.compare("value", res["value"], one, RS_TOL),
            tally.compare("gap", gap, rs - one, GAP_TOL, headline=False),
            None if rs - one > 0 else f"oracle gap {rs - one:.3g} at the named point is not positive",
        ]
    tally.op(f"certify(beta={beta:.6g}, h={h:.6g})", reasons)


def _parisi_eval(tally: Tally, f: dict, stdout: str) -> None:
    beta, h = float(f["beta"]), float(f["h"])
    zeta = [float(t) for t in f.get("zeta", "").split(",") if t.strip()]
    ladder = [[float(t) for t in row.split(",")] for row in f["q"].split(";")]
    res = result_json(stdout)
    ref = oracle.parisi_value(beta, h, zeta, ladder)
    tally.op(
        f"parisi-eval(k={len(zeta)})",
        [
            None if res["k"] == len(zeta) else f"k = {res['k']}",
            tally.compare("value", res["value"], ref, PARISI_TOL),
        ],
    )


def _mc_free_energy(tally: Tally, f: dict, stdout: str) -> None:
    n, n_dis = int(f["n"]), int(f.get("n-disorder", 1))
    res = result_json(stdout)
    mean, stderr = oracle.free_energy(float(f["beta"]), float(f["h"]), n, n_dis, int(f.get("seed", 0)))
    tally.op(
        f"mc-free-energy(N={n})",
        [
            tally.compare("mean", res["mean"], mean, ENUM_TOL),
            tally.compare("stderr", res["stderr"], stderr, ENUM_TOL),
        ],
        n_dis,
    )


def _overlap_hist(tally: Tally, f: dict, stdout: str) -> None:
    with open(BAND_PATH, encoding="utf-8") as fh:
        band = json.load(fh)
    asked = {"n": int(f["n"]), "sweeps": int(f["sweeps"]), "n_disorder": int(f.get("n-disorder", 1))}
    near = abs(float(f["beta"]) - band["beta"]) <= 0.01 and abs(float(f["h"]) - band["h"]) <= 0.01
    if not near or any(band[key] != value for key, value in asked.items()):
        raise ValueError(f"no Metropolis band for {asked} at beta={f['beta']}, h={f['h']}")
    means = {}
    for line in stdout.splitlines():
        if line.startswith("# species"):
            parts = line.split()
            means[int(parts[2].rstrip(":"))] = float(parts[4])
    reasons = []
    for s, ref in enumerate(band["species"]):
        value = means.get(s)
        if value is None or not ref["lo"] <= value <= ref["hi"]:
            reasons.append(f"species {s} mean {value} outside [{ref['lo']:.4f}, {ref['hi']:.4f}]")
    tally.op(f"overlap-hist(N={asked['n']})", reasons, asked["n_disorder"])


CHECKS = {
    "phase-diagram": _phase_diagram,
    "at-line": _at_line,
    "solve-rs": _solve_rs,
    "certify": _certify,
    "parisi-eval": _parisi_eval,
    "mc-free-energy": _mc_free_energy,
    "overlap-hist": _overlap_hist,
}
