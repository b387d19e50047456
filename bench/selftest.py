"""Self-tests of the benchmark's checks: genuine outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Runs small versions of the workloads' commands through mskglass.cli.main
in-process (a few seconds), confirms that the checks in checks.py accept the
genuine outputs, then corrupts each output in one way and confirms that the
checks reject it: a flipped verdict, beta_m off by 10x its tolerance, a
bracket-failure row, an empty certificate gap, a nonzero exit code, a wrong
enumeration mean and a Metropolis mean outside its band.  It also confirms
that oracle.py agrees with the scipy-quad oracles of tests/oracles.py on q*
and E sech^4, up to beta = 1.6.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, ROOT)

import checks  # noqa: E402
import oracle  # noqa: E402
from child import run_commands  # noqa: E402
from run import MODEL  # noqa: E402

COMMANDS = {
    "phase-diagram": ["phase-diagram", *MODEL, "--beta-range", "0.8,1.4,3", "--h-range", "0.3,0.6,2"],
    "at-line": ["at-line", *MODEL, "--h-range", "0.6,1.0,2"],
    "certify": ["certify", *MODEL, "--beta", "1.2", "--h", "0.3"],
    "mc-free-energy": ["mc-free-energy", *MODEL, "--beta", "0.3", "--h", "0.4", "--n", "10",
                       "--n-disorder", "3", "--seed", "7"],
    "overlap-hist": ["overlap-hist", *MODEL, "--beta", "0.3", "--h", "0.4", "--n", "128", "--sweeps", "400",
                     "--n-disorder", "4", "--seed", "7"],
}


def edit_csv_row(stdout: str, pick, change) -> str:
    """Apply change(cells, col) to the first data row where pick(cells, col) holds."""
    lines = stdout.splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = {name: i for i, name in enumerate(lines[header].split(","))}
    for i in range(header + 1, len(lines)):
        cells = lines[i].split(",")
        if pick(cells, col):
            change(cells, col)
            lines[i] = ",".join(cells)
            return "\n".join(lines) + "\n"
    raise AssertionError("no row to corrupt")


def edit_result(stdout: str, **changes) -> str:
    envelope = json.loads(stdout)
    envelope["result"].update(changes)
    return json.dumps(envelope)


def set_cells(**values):
    def change(cells, col):
        for name, value in values.items():
            cells[col[name]] = value

    return change


def quad_agreement() -> int:
    """Failures of oracle.py against tests/oracles.py (scipy quad, bisection)."""
    from mskglass import ModelSpec
    from tests import oracles

    spec = ModelSpec(delta2=oracle.DELTA2, lam=oracle.LAM)
    failures = 0
    for beta, h in ((1.2, 0.3), (1.6, 0.1), (1.6, 1.0)):
        q, cc = oracle.rs_overlaps(np.array(beta), np.array(h))
        q_err = float(np.abs(q - oracles.two_species_bisection(spec, beta, h)).max())
        s4_err = max(
            abs(oracle._gauss(oracle._sech4, beta, c, h)
                - oracles.gauss_expect(lambda y: np.cosh(y) ** -4.0, beta * np.sqrt(c), h))
            for c in cc
        )
        ok = max(q_err, s4_err) <= 1e-12
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} oracle vs tests/oracles.py at beta={beta}, h={h}: "
              f"q* {q_err:.1e}, E sech^4 {s4_err:.1e}")
    return failures


def main() -> int:
    import mskglass.cli as cli

    outputs = dict(zip(COMMANDS, run_commands(cli, list(COMMANDS.values()))))
    failures = quad_agreement()

    def expect(name: str, what: str, stdout=None, exit_code=None, fails=True, missing=None):
        nonlocal failures
        out = copy.deepcopy(outputs[name])
        if stdout is not None:
            out["stdout"] = stdout
        if exit_code is not None:
            out["exit"] = exit_code
        tally = checks.check(COMMANDS[name], out)
        ok = (tally.failed > 0) == fails and (missing is None or tally.missing == missing)
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {what} -> failed {tally.failed}/{tally.attempted}, "
              f"missing {tally.missing}")
        for problem in tally.problems[:2]:
            print(f"     {problem}")
        return tally

    genuine = {name: expect(name, "genuine output", fails=False) for name in COMMANDS}

    pd = outputs["phase-diagram"]["stdout"]
    expect("phase-diagram", "RS verdict flipped to RSB",
           edit_csv_row(pd, lambda c, k: c[k["verdict"]] == "RS-consistent", set_cells(verdict="RSB-certified")))
    expect("phase-diagram", "RSB verdict flipped to RS",
           edit_csv_row(pd, lambda c, k: c[k["verdict"]] == "RSB-certified",
                        set_cells(verdict="RS-consistent", gap="")))
    expect("phase-diagram", "certificate gap emptied (a shortfall, not a failure)",
           edit_csv_row(pd, lambda c, k: c[k["gap"]] != "", set_cells(gap="")),
           fails=False, missing=genuine["phase-diagram"].missing + 1)

    line = outputs["at-line"]["stdout"]

    def shift_beta(cells, col):
        cells[col["beta_m"]] = repr(float(cells[col["beta_m"]]) + 10 * checks.BETAM_TOL)

    expect("at-line", "beta_m off by 10x its tolerance", edit_csv_row(line, lambda c, k: True, shift_beta))
    expect("at-line", "bracket-failure row",
           edit_csv_row(line, lambda c, k: True, set_cells(beta_m="", status="bracket-failure")))

    cert = outputs["certify"]["stdout"]
    expect("certify", "empty certificate gap", edit_result(cert, gap=None))
    expect("certify", "nonzero exit code", exit_code=2)

    mc = outputs["mc-free-energy"]["stdout"]
    mean = json.loads(mc)["result"]["mean"]
    expect("mc-free-energy", "enumeration mean off by 1e-6", edit_result(mc, mean=mean + 1e-6))
    expect("mc-free-energy", "nonzero exit code", exit_code=2)

    hist = outputs["overlap-hist"]["stdout"]
    expect("overlap-hist", "species-0 mean moved out of the band",
           "\n".join(ln.replace(ln.split()[4], "0.5") if ln.startswith("# species 0") else ln
                     for ln in hist.splitlines()))

    print("self-test", "passed" if failures == 0 else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
