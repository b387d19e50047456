import importlib.util
import itertools
import json
import logging
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mskglass
from mskglass import TempField, free_energy_exact, rs_functional
from mskglass import atline, cli, rs, simulate
from mskglass.cli import main
from mskglass.parisi import ParisiParams, evaluate as parisi_value
from .oracles import single_species_at_beta, solve_one


@pytest.fixture()
def ref_config(tmp_path):
    path = tmp_path / "ref.json"
    path.write_text(
        json.dumps(
            {
                "delta2": [1.5, 1.0, 1.0, 1.2],
                "lambda": [0.6, 0.4],
                "mode": "two-species-standard",
            }
        )
    )
    return str(path)


@pytest.fixture()
def sk_config(tmp_path):
    path = tmp_path / "sk.json"
    path.write_text(json.dumps({"delta2": [1.0, 1.0, 1.0, 1.0], "lambda": [0.5, 0.5]}))
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_solve_rs_symmetric_model(sk_config, capsys):
    doc = _run_json(capsys, ["solve-rs", "--config", sk_config, "--beta", "0.1", "--h", "0.4"])
    q = doc["result"]["q_star"]
    assert abs(q[0] - q[1]) < 1e-12
    assert doc["result"]["converged"]
    assert doc["version"]
    assert doc["config"]["beta"] == 0.1


def test_solve_rs_matches_library_bit_for_bit(ref_config, capsys, rule, reference_spec):
    doc = _run_json(capsys, ["solve-rs", "--config", ref_config, "--beta", "0.5", "--h", "0.4"])
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf, rule)
    assert doc["result"]["q_star"] == list(sol.q_star)
    assert doc["result"]["rs_value"] == rs_functional(reference_spec, tf, sol.q_star[None], rule)[0]


def test_solve_rs_missing_field(ref_config, capsys):
    assert main(["solve-rs", "--config", ref_config]) == 1  # no beta
    assert main(["solve-rs", "--beta", "0.5"]) == 1  # no model
    for order in ("0", "400", "10000000"):  # no Gauss-Hermite rule of that order
        capsys.readouterr()
        assert main(["solve-rs", "--config", ref_config, "--beta", "0.5", "--order", order]) == 1
        assert capsys.readouterr().err.startswith("config error:")


def test_unknown_subcommand_exits_one(capsys):
    assert main(["bogus"]) == 1
    assert "usage" in capsys.readouterr().err


def test_parser_is_built_once_and_reused_after_a_usage_error(ref_config, capsys):
    """main reuses one parser per process: after a usage error (exit 1) a valid
    command on the same parser exits 0 with the output a fresh parser gives."""
    argv = ["solve-rs", "--config", ref_config, "--beta", "0.5", "--h", "0.4"]
    assert cli.build_parser() is cli.build_parser()
    assert main(["solve-rs", "--config", ref_config, "--no-such-flag"]) == 1
    capsys.readouterr()
    assert main(argv) == 0
    reused = capsys.readouterr().out
    cli.build_parser.cache_clear()
    assert main(argv) == 0
    assert capsys.readouterr().out == reused


def test_json_round_trip(sk_config, capsys):
    doc = _run_json(capsys, ["solve-rs", "--config", sk_config, "--beta", "0.2", "--h", "0.3"])
    assert json.loads(json.dumps(doc)) == doc


def _read_csv(path):
    header = {}
    columns, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    return header, columns, rows


def test_at_line_single_row_and_header(ref_config, tmp_path, capsys):
    out = tmp_path / "line.csv"
    code = main(
        ["at-line", "--config", ref_config, "--h-range", "0.3,0.3,1", "--out", str(out)]
    )
    assert code == 0
    header, columns, rows = _read_csv(out)
    assert columns == ["h", "beta_m", "status"]
    assert "version" in header
    assert json.loads(header["config"])["lambda"] == [0.6, 0.4]
    assert len(rows) == 1
    h_val, beta_val, status = rows[0]
    assert status == "ok"
    assert float(h_val) == 0.3
    # 17-significant-digit floats round-trip exactly
    assert f"{float(beta_val):.17g}" == beta_val


def test_at_line_sk_matches_classical(sk_config, tmp_path):
    out = tmp_path / "sk_line.csv"
    assert main(["at-line", "--config", sk_config, "--h-range", "0.2,0.2,1", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    beta = float(rows[0][1])
    assert abs(beta - single_species_at_beta(0.2)) < 1e-6


def test_at_line_boundary_jump_is_logged(ref_config, tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(cli, "at_line_betas", lambda spec, h, rule: [0.9, 1.5])
    argv = ["at-line", "--config", ref_config, "--h-range", "0.3,0.31,2", "--out", str(tmp_path / "l.csv")]
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv) == 0
    assert [(r.name, r.levelno) for r in caplog.records] == [("mskglass", logging.WARNING)]
    assert "boundary jump 0.6 at h = 0.31" in caplog.records[0].getMessage()


def test_at_line_keeps_the_rows_after_a_failure(ref_config, tmp_path):
    """At h = 100 g stays negative up to 128 sqrt(beta2_m(lambda)); at h = 400 gamma
    underflows to 0.  Both rows are reported, and the scan exits 0."""
    out = tmp_path / "line.csv"
    assert main(["at-line", "--config", ref_config, "--h-range", "100,400,2", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert rows == [["100", "", "bracket-failure"], ["400", "", "numerical-failure"]]


def test_standard_mode_takes_the_classical_reduction(tmp_path):
    """The two-species-standard mode accepts every model the commands take,
    the classical reduction included: its row equals the convex-mode row."""
    rows = {}
    for mode in ("convex", "two-species-standard"):
        out = tmp_path / f"{mode}.csv"
        argv = ["at-line", "--delta2", "1,1,1,1", "--lambda", "0.6,0.4", "--mode", mode,
                "--h-range", "0.3,0.3,1", "--out", str(out)]
        assert main(argv) == 0
        rows[mode] = _read_csv(out)[2]
    assert rows["two-species-standard"] == rows["convex"]
    assert rows["convex"][0][2] == "ok" and float(rows["convex"][0][1]) == pytest.approx(0.99066, abs=1e-5)


def test_at_line_rejects_zero_field(ref_config):
    assert main(["at-line", "--config", ref_config, "--h-range", "0,0.5,3"]) == 1


def test_phase_diagram_grid(ref_config, tmp_path):
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.5,1.4,4", "--h-range", "0.2,0.4,2"]
    assert main(argv + ["--out", str(out)]) == 0
    _, columns, rows = _read_csv(out)
    assert columns == ["beta", "h", "verdict", "beta2_m", "gap"]
    assert len(rows) == 8
    # rows come out in grid order: h outer, beta inner
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (beta, h) for h in np.linspace(0.2, 0.4, 2) for beta in np.linspace(0.5, 1.4, 4)
    ]
    assert main(argv + ["--workers", "2"]) == 1  # the scan is serial; the option is gone
    for bad in ("0,1,3", "-0.5,1,3"):  # beta must be positive on the whole grid
        assert main(argv + ["--beta-range", bad]) == 1
    for h_slice in (rows[:4], rows[4:]):
        verdicts = [r[2] for r in h_slice]
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1  # grid straddles the line exactly once per slice
        for r in h_slice:
            if r[2] == "RS-consistent":
                assert r[4] == ""
            else:
                assert r[2] == "RSB-certified"
                assert float(r[4]) > 0


def test_phase_diagram_runs_long_rows_in_blocks(ref_config, tmp_path, monkeypatch):
    """An h row longer than the block size runs as several batches: the rows,
    verdicts and beta2_m come out as from one batch per row, and the gaps
    agree to 1e-13."""
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.5,1.4,7", "--h-range", "0.2,0.4,2"]
    assert main(argv + ["--out", str(tmp_path / "rows.csv")]) == 0
    batches = []
    rows = cli._phase_rows
    monkeypatch.setattr(cli, "_phase_rows", lambda spec, tf, rule: batches.append(tf.beta.size) or rows(spec, tf, rule))
    monkeypatch.setattr(cli, "_BLOCK_POINTS", 3)
    assert main(argv + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert batches == [3, 3, 1] * 2
    whole, blocks = _read_csv(tmp_path / "rows.csv")[2], _read_csv(tmp_path / "blocks.csv")[2]
    assert [r[:4] for r in blocks] == [r[:4] for r in whole]
    assert any(r[4] for r in whole)
    for r, ref in zip(blocks, whole):
        assert (r[4] == "") == (ref[4] == "") and (not ref[4] or abs(float(r[4]) - float(ref[4])) <= 1e-13)


def test_phase_diagram_verdict_flips_are_logged(ref_config, tmp_path, monkeypatch, caplog):
    verdicts = itertools.cycle(["RS-consistent", "RSB-certified"])

    def alternating(spec, tf, rule):
        return [(beta, h, next(verdicts), 0.5, None) for beta, h in zip(tf.beta, tf.h)]

    monkeypatch.setattr(cli, "_phase_rows", alternating)
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.4,1.0,4",
            "--h-range", "0.3,0.3,1", "--out", str(tmp_path / "pd.csv")]
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv) == 0
    assert [(r.name, r.levelno) for r in caplog.records] == [("mskglass", logging.WARNING)]
    assert "verdict flips 3 times along the h-slice starting at row 0" in caplog.records[0].getMessage()


def test_phase_diagram_keeps_the_rows_after_a_failure(ref_config, tmp_path, monkeypatch, caplog):
    """At h = 300 gamma underflows to 0: those points are numerical-failure
    rows with neither beta2_m nor gap, the scan goes on and exits 0, and a
    failure row between two equal verdicts is no verdict flip."""
    out = tmp_path / "pd.csv"
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "1,1.2,2", "--h-range", "100,300,2"]
    assert main(argv + ["--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    assert [r[2] for r in rows] == ["RS-consistent"] * 2 + ["numerical-failure"] * 2
    assert all(r[3:] == ["", ""] for r in rows[2:])

    solve = atline.solve_points

    def failing_in_the_middle(spec, tf, rule):
        solutions = solve(spec, tf, rule)
        return [mskglass.NotConverged("no start converged") if beta == 0.5 else solution
                for beta, solution in zip(tf.beta, solutions)]

    monkeypatch.setattr(atline, "solve_points", failing_in_the_middle)
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.4,0.6,3", "--h-range", "0.3,0.3,1"]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv + ["--out", str(out)]) == 0
    assert [r[2] for r in _read_csv(out)[2]] == ["RS-consistent", "numerical-failure", "RS-consistent"]
    assert [r.getMessage() for r in caplog.records] == [
        "numerical-failure at (beta, h) = (0.5, 0.3): no start converged"
    ]


def test_failed_points_are_logged_with_their_reason(ref_config, capsys, caplog):
    """Each failed point is logged under the mskglass logger with its (beta, h)
    and the exception's message; stdout carries the rows alone."""
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "1,1.2,2", "--h-range", "100,300,2"]
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert [line.split(",")[2] for line in stdout.splitlines()[3:]] == ["RS-consistent"] * 2 + ["numerical-failure"] * 2
    assert {r.name for r in caplog.records} == {"mskglass"}
    messages = [r.getMessage() for r in caplog.records]
    assert len(messages) == 2
    for beta, message in zip(("1", "1.2"), messages):
        assert message.startswith(f"numerical-failure at (beta, h) = ({beta}, 300): quartic susceptibility underflowed")
    assert "underflowed" not in stdout

    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(["at-line", "--config", ref_config, "--h-range", "100,400,2"]) == 0
    messages = [r.getMessage() for r in caplog.records]
    assert messages[0].startswith("bracket-failure at h = 100: no bracket")
    assert messages[1].startswith("numerical-failure at h = 400: quartic susceptibility underflowed")
    assert "no bracket" not in capsys.readouterr().out


def test_phase_diagram_all_below_line(ref_config, tmp_path):
    out = tmp_path / "pd_low.csv"
    code = main(
        [
            "phase-diagram",
            "--config",
            ref_config,
            "--beta-range",
            "0.2,0.4,3",
            "--h-range",
            "0.3,0.3,1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    _, _, rows = _read_csv(out)
    assert all(r[2] == "RS-consistent" for r in rows)


def test_certify_above_and_below(ref_config, capsys):
    doc = _run_json(capsys, ["certify", "--config", ref_config, "--beta", "1.2", "--h", "0.3"])
    assert doc["result"]["gap"] > 0
    assert doc["result"]["verdict"] == "RSB-certified"
    assert main(["certify", "--config", ref_config, "--beta", "0.4", "--h", "0.3"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")
    # at h = 200 the quartic susceptibility underflows to 0
    assert main(["certify", "--config", ref_config, "--beta", "1.2", "--h", "200"]) == 2
    assert capsys.readouterr().err.startswith("numerical failure:")


@pytest.mark.parametrize(
    "delta2, lam, beta",
    [
        ("3,2,2,2.4", "0.6,0.4", 1.2 / math.sqrt(2.0)),  # twice the reference, at beta / sqrt(2)
        ("1.2,1,1,1.5", "0.4,0.6", 1.2),  # the reference with its species swapped
    ],
)
def test_certify_accepts_scaled_and_swapped_models(ref_config, capsys, delta2, lam, beta):
    """Scale and species order are normalisations: both models certify, at
    the reference's beta2_m in the reference's units."""
    ref = _run_json(capsys, ["certify", "--config", ref_config, "--beta", "1.2", "--h", "0.3"])["result"]
    argv = ["certify", "--delta2", delta2, "--lambda", lam, "--mode", "two-species-standard",
            "--beta", repr(beta), "--h", "0.3"]
    doc = _run_json(capsys, argv)["result"]
    scale = 1.44 / beta ** 2
    assert doc["verdict"] == "RSB-certified" and doc["gap"] > 0
    assert doc["beta2_m"] * scale == pytest.approx(ref["beta2_m"], rel=1e-13)


def test_parisi_eval_matches_library(ref_config, tmp_path, capsys, reference_spec, rule):
    doc = _run_json(
        capsys,
        [
            "parisi-eval",
            "--config",
            ref_config,
            "--beta",
            "0.5",
            "--h",
            "0.4",
            "--zeta",
            "0.6",
            "--q",
            "0.2,0.5;0.3,0.6",
        ],
    )
    params = ParisiParams(zeta=np.array([0.6]), q=np.array([[0.2, 0.5], [0.3, 0.6]]))
    want = parisi_value(reference_spec, TempField(beta=0.5, h=0.4), params, rule)[0, 0]
    assert doc["result"]["value"] == want
    assert doc["result"]["k"] == 1
    # a batch of weight vectors or of ladders is library-only; the CLI evaluates one point
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps({**json.loads(open(ref_config).read()), "zeta": [[0.6], [0.7]]}))
    argv = ["parisi-eval", "--config", str(batch), "--beta", "0.5", "--h", "0.4", "--q", "0.2,0.5;0.3,0.6"]
    assert main(argv) == 1
    batch.write_text(json.dumps({**json.loads(open(ref_config).read()), "q": [[[0.2, 0.5], [0.3, 0.6]]] * 2}))
    assert main(["parisi-eval", "--config", str(batch), "--beta", "0.5", "--h", "0.4", "--zeta", "0.6"]) == 1


def test_mc_free_energy_pass_through(ref_config, capsys, reference_spec):
    doc = _run_json(
        capsys,
        [
            "mc-free-energy",
            "--config",
            ref_config,
            "--beta",
            "0.3",
            "--h",
            "0.4",
            "--n",
            "10",
            "--n-disorder",
            "4",
            "--seed",
            "3",
        ],
    )
    est = free_energy_exact(reference_spec, TempField(beta=0.3, h=0.4), n=10, n_disorder=4, seed=3)
    assert doc["result"]["mean"] == est.mean
    assert doc["result"]["stderr"] == est.stderr
    assert doc["config"]["seed"] == 3  # config echo


def test_overlap_hist_csv(sk_config, tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code = main(
        [
            "overlap-hist",
            "--config",
            sk_config,
            "--beta",
            "0.2",
            "--h",
            "0.5",
            "--n",
            "24",
            "--sweeps",
            "40",
            "--n-disorder",
            "2",
            "--seed",
            "8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, columns, rows = _read_csv(out)
    assert columns == ["bin_left", "bin_right", "count"]
    assert len(rows) == 2 * simulate.HISTOGRAM_BINS  # two species
    counts = sum(int(r[2]) for r in rows)
    # (sweeps - burn_in) measurements per disorder sample, per species
    assert counts == 2 * 2 * 20
    summary = json.loads(capsys.readouterr().out)
    assert summary["result"]["n_measurements"] == 40
    assert 0.0 < summary["result"]["acceptance"] < 1.0
    assert float(header["acceptance"]) == summary["result"]["acceptance"]


@pytest.mark.parametrize(
    "argv",
    [
        ["mc-free-energy", "--n", "0"],
        ["mc-free-energy", "--n", "-3"],
        ["overlap-hist", "--n", "1", "--sweeps", "4"],
        ["overlap-hist", "--n", "8", "--sweeps", "0"],
        ["mc-free-energy", "--n", "6", "--n-disorder", "0"],
        ["overlap-hist", "--n", "8", "--sweeps", "4", "--n-disorder", "0"],
        ["mc-free-energy", "--n", "30"],  # exact enumeration stops at N = 24
        ["overlap-hist", "--n", "300"],  # Metropolis stops at N = 256
    ],
)
def test_finite_n_bad_counts_are_config_errors(ref_config, capsys, argv):
    assert main(argv + ["--config", ref_config, "--beta", "0.3", "--h", "0.4"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "command, fields",
    [
        ("mc-free-energy", {"beta": 0.3, "N": "abc"}),
        ("at-line", {"h_range": [0.1, 1.0]}),
        ("solve-rs", {"beta": [0.3]}),
        # integer fields refuse fractional, boolean and infinite values instead of truncating
        ("mc-free-energy", {"beta": 0.3, "N": 6.9}),
        ("mc-free-energy", {"beta": 0.3, "N": 6, "n_disorder": True}),
        ("solve-rs", {"beta": 0.3, "order": 61.7}),
        # a key that names no field is refused, the retired species count M among them
        ("solve-rs", {"beta": 0.3, "M": 2}),
        ("overlap-hist", {"beta": 0.3, "N": 8, "sweeps": 4, "seed": 1e400}),
        ("at-line", {"h_range": [0.1, 1.0, 2.5]}),
        # real fields refuse booleans instead of reading them as 1 and 0
        ("solve-rs", {"beta": True}),
        ("solve-rs", {"beta": 0.3, "h": False}),
        ("at-line", {"h_range": [0.1, True, 3]}),
        # the certificate grids and histogram bins are constants: their keys are unknown, whatever they hold
        ("certify", {"beta": 1.2, "h": 0.3, "eps_grid": [0.05]}),
        ("certify", {"beta": 1.2, "h": 0.3, "zeta_grid": 0.9}),
        ("certify", {"beta": 1.2, "h": 0.3, "bins": 40}),
        # the output path is a string
        ("solve-rs", {"beta": 0.3, "out": 5}),
        ("solve-rs", {"beta": 0.3, "out": ["a"]}),
        # number fields take JSON numbers only: a boolean entry or a string is not read as a number
        ("solve-rs", {"beta": 0.3, "delta2": [True, 1, 1, 1.2]}),
        ("solve-rs", {"beta": "0.5"}),
        ("solve-rs", {"beta": 0.3, "lambda": ["0.6", "0.4"]}),
    ],
)
def test_malformed_config_values_are_config_errors(ref_config, tmp_path, capsys, command, fields):
    with open(ref_config, encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**doc, **fields}))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_config_keys_are_named(ref_config, tmp_path, capsys):
    """A misspelt key would be recorded in the output config yet have no effect."""
    with open(ref_config, encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**doc, "beta": 0.5, "oder": 5, "M": 2}))
    assert main(["solve-rs", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "config error: unknown config field(s): 'oder', 'M'\n"


THREE_SPECIES = ["--delta2", "1,0.5,0.5,0.5,1,0.5,0.5,0.5,1", "--lambda", "0.3,0.3,0.4"]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--beta", "1.2", "--h", "0"],  # needs h > 0
        ["at-line", *THREE_SPECIES],
        ["phase-diagram", *THREE_SPECIES],
        ["certify", *THREE_SPECIES, "--beta", "1.2", "--h", "0.3"],
    ],
)
def test_inputs_outside_the_supported_class_exit_one(capsys, argv):
    """The library's Unsupported is an input error: exit 1 with the config-error prefix."""
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_every_bench_command_exits_zero(capsys):
    """Each command of the benchmark's workloads at seed 0 runs through the CLI and exits 0,
    so a CLI change that would break the benchmark (a flag it passes, say) fails here."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for name, commands in bench.workloads(0).items():
        for argv in commands:
            assert main(argv) == 0, (name, argv, capsys.readouterr().err)
    capsys.readouterr()


def test_unwritable_output_is_config_error(ref_config, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(["solve-rs", "--config", ref_config, "--beta", "0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-rs", "--beta", "0.5", "--seed", "3"],
        ["at-line", "--beta", "7", "--seed", "3"],
        ["phase-diagram", "--beta", "0.5"],
        ["mc-free-energy", "--beta", "0.3", "--n", "6", "--order", "5000"],
        # the certificate grids and histogram bins are constants, read by no command
        ["certify", "--beta", "1.2", "--h", "0.3", "--eps-grid", "0.05"],
        ["certify", "--beta", "1.2", "--h", "0.3", "--zeta-grid", "0.9"],
        ["overlap-hist", "--beta", "0.3", "--n", "8", "--sweeps", "4", "--bins", "40"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(ref_config, capsys, argv):
    assert main(argv + ["--config", ref_config]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_phase_diagram_matches_golden_output(tmp_path, capsys):
    """The README phase-diagram scan against its checked-in output.

    The recorded config must match exactly, key order included.  Verdicts
    and which cells carry a gap must match exactly.  beta2_m must agree to
    1e-13 relative.  A gap is a difference of two functional values of
    order 1, so it must agree to 1e-13 of those values (absolute).
    """
    golden = pathlib.Path(__file__).parent / "data" / "phase_diagram_readme.csv"
    out = tmp_path / "phase.csv"
    argv = ["phase-diagram", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--mode", "two-species-standard",
            "--beta-range", "0.4,1.6,25", "--h-range", "0.1,1.0,10"]
    assert main(argv) == 0
    out.write_text(capsys.readouterr().out)
    want_header, want_columns, want = _read_csv(golden)
    header, columns, rows = _read_csv(out)
    assert header["config"] == want_header["config"]
    assert columns == want_columns and len(rows) == len(want) == 250
    for row, ref in zip(rows, want):
        assert row[:3] == ref[:3]
        assert float(row[3]) == pytest.approx(float(ref[3]), rel=1e-13, abs=0)
        assert (row[4] == "") == (ref[4] == "")
        if ref[4]:
            assert abs(float(row[4]) - float(ref[4])) <= 1e-13


def test_readme_at_line_matches_golden(tmp_path, capsys):
    """The README at-line scan (20 fields) reproduces tests/data/at_line_readme.csv:
    the recorded config and every h, beta_m and status string exactly."""
    golden = pathlib.Path(__file__).parent / "data" / "at_line_readme.csv"
    out = tmp_path / "line.csv"
    argv = ["at-line", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--mode", "two-species-standard",
            "--h-range", "0.05,1.0,20"]
    assert main(argv) == 0
    out.write_text(capsys.readouterr().out)
    want_header, want_columns, want = _read_csv(golden)
    header, columns, rows = _read_csv(out)
    assert header["config"] == want_header["config"]
    assert columns == want_columns and rows == want and len(rows) == 20


def test_readme_scans_kernel_calls(monkeypatch, capsys):
    """The README phase-diagram scan evaluates at most 2,000 kernel rows, one
    per (run, iteration) whatever the batching (4,975 map calls under plain
    iteration)."""
    rows = []
    for module in (rs, atline):
        fn = module.map_derivatives
        monkeypatch.setattr(module, "map_derivatives",
                            lambda spec, tf, q, rule, fn=fn: rows.append(np.size(q) // spec.m) or fn(spec, tf, q, rule))
    argv = ["phase-diagram", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--mode", "two-species-standard",
            "--beta-range", "0.4,1.6,25", "--h-range", "0.1,1.0,10"]
    assert main(argv) == 0
    assert sum(rows) <= 2000


def test_phase_diagram_where_gamma_is_subnormal(ref_config, capsys):
    """At h = 185 the thresholds lie at or beyond the float64 range: the rows
    are RS-consistent and the scan exits 0."""
    assert main(["phase-diagram", "--config", ref_config, "--beta-range", "0.5,1.2,2", "--h-range", "185,185,1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[3:]]
    assert [r[2] for r in rows] == ["RS-consistent"] * 2 and rows[0][3] == "inf"


def test_model_dimension_mismatch_exits_one():
    argv = ["solve-rs", "--delta2", "1,1,1,1", "--lambda", "0.3,0.3,0.4", "--beta", "0.2"]
    assert main(argv) == 1


@pytest.mark.parametrize(
    "ranges, code",
    [
        (["--beta-range", "0.5,0.5,1", "--h-range", "0.1,0.2,3"], 0),  # a single point may have min == max
        (["--beta-range", "0.5,0.4,3", "--h-range", "0.1,0.2,3"], 1),  # min > max
        (["--beta-range", "0.5,0.6,0", "--h-range", "0.1,0.2,3"], 1),  # no steps
        (["--beta-range", "0.5,0.6,3", "--h-range", "0.0,0.2,3"], 1),  # h must be positive
    ],
)
def test_scan_ranges(ref_config, tmp_path, capsys, ranges, code):
    out = tmp_path / "pd.csv"
    assert main(["phase-diagram", "--config", ref_config, *ranges, "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("config error:")
    else:
        _, _, rows = _read_csv(out)
        assert [(float(r[0]), float(r[1])) for r in rows] == [(0.5, h) for h in np.linspace(0.1, 0.2, 3)]


def test_console_entry_point(sk_config):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(mskglass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mskglass", "solve-rs", "--config", sk_config, "--beta", "0.2", "--h", "0.1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["converged"]


def test_model_from_flags_alone(capsys):
    doc = _run_json(
        capsys,
        [
            "solve-rs",
            "--delta2",
            "1,1,1,1",
            "--lambda",
            "0.5,0.5",
            "--beta",
            "0.2",
            "--h",
            "0.3",
        ],
    )
    q = doc["result"]["q_star"]
    assert abs(q[0] - q[1]) < 1e-12


def test_flag_overrides_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {"delta2": [1.5, 1, 1, 1.2], "lambda": [0.6, 0.4], "beta": 0.2, "h": 0.1}
        )
    )
    doc = _run_json(capsys, ["solve-rs", "--config", str(path), "--beta", "0.5", "--h", "0.4"])
    assert doc["config"]["beta"] == 0.5
    assert doc["config"]["h"] == 0.4
