"""mskglass benchmark: the README's CLI workloads, timed and oracle-checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see bench/README.md for why each exists):
    phase-diagram     25 x 10 verdict grid with certificates
    at-line           boundary beta_m(h) on the same 10 h rows
    point-crosscheck  solve-rs, certify twice, parisi-eval at k = 1 and twice at k = 2
    finite-n          exact enumeration at N = 20 and 24, Metropolis overlaps at N = 128

Untraced (--trace 0): each repetition starts a fresh interpreter that imports
mskglass from ./src, parses the first command and runs every command through
mskglass.cli.main.  Repetitions continue until --seconds have passed (at
least one); a set-up-only interpreter precedes each, and more follow until
there are SETUP_SAMPLES set-up times.  Reported: medians of wall_s, cpu_s and
peak_rss_mb over repetitions, median setup_s, and max_err / ok_frac from the
oracle checks.  Traced (--trace 1): one interpreter runs the commands with
every public mskglass function wrapped, then again untraced, and reports
per-layer metrics.

The seed picks a sub-step offset u * SHIFT * step for every scan grid and
(beta, h) point, and the disorder seed of the finite-N commands; seed 0
reproduces the README inputs exactly.  Oracle references are computed after
the timed repetitions.  The last stdout line is the result JSON; the line
before it is the machine record.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

MODEL = ["--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--mode", "two-species-standard"]
SHIFT = 0.005  # largest offset, as a share of the README grid step
BETA_STEP, H_STEP = 0.05, 0.1  # README phase-diagram steps
MC_SEED = 7  # README disorder seed
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170.0  # every interpreter of one run is killed past this

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_err": "abs",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run or cannot trust its measurement."""


def workloads(seed: int) -> dict:
    """Command lists of every workload for one seed."""
    u = 0.0 if seed == 0 else random.Random(seed).random()
    db, dh = u * SHIFT * BETA_STEP, u * SHIFT * H_STEP
    mc_seed = str(MC_SEED if seed == 0 else random.Random(-seed).randrange(1, 2**31))

    def fmt(x: float) -> str:
        return repr(float(x))

    def span(lo, hi, steps, d):
        return f"{fmt(lo + d)},{fmt(hi + d)},{steps}"

    def at(beta, h):
        return ["--beta", fmt(beta + db), "--h", fmt(h + dh)]

    return {
        "phase-diagram": [
            ["phase-diagram", *MODEL, "--beta-range", span(0.4, 1.6, 25, db), "--h-range", span(0.1, 1.0, 10, dh)]
        ],
        "at-line": [["at-line", *MODEL, "--h-range", span(0.1, 1.0, 10, dh)]],
        "point-crosscheck": [
            ["solve-rs", *MODEL, *at(1.2, 0.3)],
            ["certify", *MODEL, *at(1.2, 0.3)],
            ["certify", *MODEL, *at(1.5, 0.6)],
            ["parisi-eval", *MODEL, *at(0.5, 0.4), "--zeta", "0.6", "--q", "0.2,0.5;0.3,0.6"],
            ["parisi-eval", *MODEL, *at(1.2, 0.3), "--zeta", "0.4,0.8", "--q", "0.2,0.4,0.6;0.2,0.5,0.7"],
            ["parisi-eval", *MODEL, *at(0.5, 0.4), "--zeta", "0.3,0.7", "--q", "0.1,0.2,0.5;0.1,0.3,0.6"],
        ],
        "finite-n": [
            ["mc-free-energy", *MODEL, *at(0.3, 0.4), "--n", "20", "--n-disorder", "200", "--seed", mc_seed],
            ["mc-free-energy", *MODEL, *at(0.3, 0.4), "--n", "24", "--n-disorder", "4", "--seed", mc_seed],
            ["overlap-hist", *MODEL, *at(0.3, 0.4), "--n", "128", "--sweeps", "400", "--n-disorder", "4",
             "--seed", mc_seed],
        ],
    }


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, commands, deadline: float) -> dict:
    """Run child.py in a fresh interpreter; add spawn time and its tree's rusage.

    The interpreter and its process group are killed at `deadline` (monotonic).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD, mode, json.dumps(commands)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    timer = threading.Timer(max(deadline - spawned, 0.0), _kill_group, (proc.pid,))
    timer.start()
    try:
        text = proc.stdout.read().decode("utf-8", "replace")
    finally:
        _, status, usage = os.wait4(proc.pid, 0)  # rusage covers the reaped pool workers too
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} interpreter exited with {proc.returncode}:\n{text[-3000:]}")
    record = json.loads(text.strip().splitlines()[-1])
    if not os.path.abspath(record["package"]).startswith(os.path.join(SRC, "mskglass") + os.sep):
        raise BenchError(f"mskglass was imported from {record['package']}, not from {SRC}")
    record["spawned"] = spawned
    record["cpu_total"] = usage.ru_utime + usage.ru_stime
    record["maxrss_mb"] = usage.ru_maxrss / 1024.0
    return record


def cli_pool_size() -> int:
    """Worker count the CLI picks when --workers is not given (see cmd_phase_diagram)."""
    return min(os.cpu_count() or 1, 8)


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "mskglass", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "cli_pool_size": cli_pool_size(),
        "loadavg_start": os.getloadavg(),
        "host_probe_s_start": host_probe(),
    }


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: a record of how fast the host ran."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


def check_outputs(reps):
    """Oracle-check every repetition; identical outputs are checked once."""
    import checks

    total = checks.Tally()
    seen = {}
    for outputs in reps:
        for out in outputs:
            key = (json.dumps(out["argv"]), out["exit"], out["stdout"])
            if key not in seen:
                seen[key] = checks.check(out["argv"], out)
            total.merge(seen[key])
    return total


def measure(name: str, seed: int, seconds: float, traced: bool):
    commands = workloads(seed)[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    if not traced:
        reps, setups = [], []
        start = time.monotonic()
        while not reps or time.monotonic() - start < seconds:
            for rec in (spawn("setup", commands, deadline), spawn("run", commands, deadline)):
                setups.append(rec["ready"] - rec["spawned"])
            reps.append(rec)
        while len(setups) < SETUP_SAMPLES:
            rec = spawn("setup", commands, deadline)
            setups.append(rec["ready"] - rec["spawned"])
        tally = check_outputs([r["outputs"] for r in reps])
        metrics = {
            "wall_s": statistics.median(r["done"] - r["ready"] for r in reps),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_total"] - r["cpu_ready"] for r in reps),
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in reps),
            "max_err": tally.max_err,
            "ok_frac": 1.0 - (tally.failed + tally.missing) / tally.attempted,
        }
        units = END_TO_END
        extra = {
            "wall_s_reps": [r["done"] - r["ready"] for r in reps],
            "cpu_s_reps": [r["cpu_total"] - r["cpu_ready"] for r in reps],
            "setup_s_samples": setups,
        }
    else:
        import spans

        rec = spawn("trace", commands, deadline)
        tally = check_outputs([rec["outputs"]])
        metrics = rec["layers"]
        units = {spec[0]: spec[1] for spec in spans.metric_specs()}
        extra = {}
    extra.update({"missing_certificates": tally.missing, "problems": tally.problems[:20]})
    return commands, tally, {k: {"value": metrics[k], "unit": units[k]} for k in units}, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads(0)))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mskglass", "cli.py")):
        print(f"bench: no mskglass sources under {SRC}", file=sys.stderr)
        return 2
    record = machine_record()
    if record["cli_pool_size"] > record["nproc"]:
        print(
            f"bench: the CLI would start {record['cli_pool_size']} workers on {record['nproc']} CPUs; "
            "refusing to time an oversubscribed pool",
            file=sys.stderr,
        )
        return 2
    try:
        commands, tally, metrics, extra = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    record.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "commands": commands,
            "loadavg_end": os.getloadavg(),
            "host_probe_s_end": host_probe(),
            **extra,
        }
    )
    for name, metric in metrics.items():
        print(f"{args.workload} {name}: {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
