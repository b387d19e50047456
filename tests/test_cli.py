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
from mskglass import atline, cli, onersb, quadrature, rs, simulate
from mskglass.cli import main
from mskglass.parisi import ParisiParams, evaluate as parisi_value
from .oracles import single_species_at_beta, solve_one

README_PHASE_DIAGRAM = ["phase-diagram", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4", "--mode",
                        "two-species-standard", "--beta-range", "0.4,1.6,25", "--h-range", "0.1,1.0,10"]


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


def test_solve_rs_matches_library_bit_for_bit(ref_config, capsys, reference_spec):
    doc = _run_json(capsys, ["solve-rs", "--config", ref_config, "--beta", "0.5", "--h", "0.4"])
    tf = TempField(beta=0.5, h=0.4)
    sol = solve_one(reference_spec, tf)
    assert doc["result"]["q_star"] == list(sol.q_star)
    assert doc["result"]["rs_value"] == rs_functional(reference_spec, tf, sol.q_star[None])[0]


def test_solve_rs_missing_field(ref_config, capsys):
    assert main(["solve-rs", "--config", ref_config]) == 1  # no beta
    assert main(["solve-rs", "--beta", "0.5"]) == 1  # no model


def test_certify_refuses_orders_with_no_rule(ref_config, capsys):
    for order in ("0", "400", "10000000"):  # no Gauss-Hermite rule of that order
        capsys.readouterr()
        assert main(["certify", "--config", ref_config, "--beta", "1.2", "--h", "0.3", "--order", order]) == 1
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
    assert abs(beta - single_species_at_beta(0.2)) < 1e-10


def test_at_line_boundary_jump_is_logged(ref_config, tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(cli, "at_line_betas", lambda spec, h: [0.9, 1.5])
    argv = ["at-line", "--config", ref_config, "--h-range", "0.3,0.31,2", "--out", str(tmp_path / "l.csv")]
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv) == 0
    assert [(r.name, r.levelno) for r in caplog.records] == [("mskglass", logging.WARNING)]
    assert "boundary jump 0.6 at h = 0.31" in caplog.records[0].getMessage()


def test_at_line_keeps_the_rows_after_a_failure(ref_config, tmp_path, monkeypatch):
    """With the bracket's upper end held at 4 sqrt(beta2_m(lambda)), g stays negative
    there at h = 100; at h = 400 gamma underflows to 0.  Both rows are reported, and
    the scan exits 0."""
    monkeypatch.setattr(atline, "_LINE_DOUBLINGS", 1)
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
    """A grid larger than the block size runs as several batches of grid points in
    output order, across h rows: the rows, verdicts, beta2_m and gaps come out as from
    one batch, bit for bit (each slope's nodes follow from its own point)."""
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.5,1.4,7", "--h-range", "0.2,0.4,2"]
    assert main(argv + ["--out", str(tmp_path / "whole.csv")]) == 0
    batches = []
    rows = cli._phase_rows
    monkeypatch.setattr(cli, "_phase_rows", lambda spec, tf: batches.append(tf.beta.size) or rows(spec, tf))
    monkeypatch.setattr(cli, "_BLOCK_POINTS", 3)
    assert main(argv + ["--out", str(tmp_path / "blocks.csv")]) == 0
    assert batches == [3, 3, 3, 3, 2]
    whole, blocks = _read_csv(tmp_path / "whole.csv")[2], _read_csv(tmp_path / "blocks.csv")[2]
    assert blocks == whole
    assert any(r[4] for r in whole)


def test_phase_diagram_verdict_flips_are_logged(ref_config, tmp_path, monkeypatch, caplog):
    """Two h rows in one batch: each slice that flips more than once gets its own
    warning, naming the row the slice starts at."""
    verdicts = itertools.cycle(["RS-consistent", "RSB-certified"])
    batches = []

    def alternating(spec, tf):
        batches.append(tf.beta.size)
        return [(beta, h, next(verdicts), 0.5, None) for beta, h in zip(tf.beta, tf.h)]

    monkeypatch.setattr(cli, "_phase_rows", alternating)
    argv = ["phase-diagram", "--config", ref_config, "--beta-range", "0.4,1.0,4",
            "--h-range", "0.2,0.3,2", "--out", str(tmp_path / "pd.csv")]
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main(argv) == 0
    assert batches == [8]
    assert [(r.name, r.levelno) for r in caplog.records] == [("mskglass", logging.WARNING)] * 2
    assert [r.getMessage() for r in caplog.records] == [
        f"verdict flips 3 times along the h-slice starting at row {row}; expected a single transition"
        for row in (0, 4)
    ]


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

    def failing_in_the_middle(spec, tf):
        solutions = solve(spec, tf)
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


def test_failed_points_are_logged_with_their_reason(ref_config, capsys, caplog, monkeypatch):
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
    monkeypatch.setattr(atline, "_LINE_DOUBLINGS", 1)  # the upper bracket end at 4 sqrt(beta2_m(lambda))
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


@pytest.mark.parametrize(
    "point, want",
    [
        (["--beta", "0.5", "--h", "0.4", "--zeta", "0.6", "--q", "0.2,0.5;0.3,0.6"], 0.92309164129108),
        (["--beta", "1.2", "--h", "0.3", "--zeta", "0.4,0.8", "--q", "0.2,0.4,0.6;0.2,0.5,0.7"], 1.5192236554176781),
    ],
)
def test_parisi_eval_below_every_level_order(ref_config, capsys, point, want):
    """At --order 5, far below the default, every level takes the configured rule: k = 1 and k = 2
    print, bit for bit, the values recorded at that order."""
    doc = _run_json(capsys, ["parisi-eval", "--config", ref_config, "--order", "5", *point])
    assert doc["result"]["value"] == want


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
        ("certify", {"beta": 1.2, "h": 0.3, "order": 61.7}),
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


@pytest.mark.parametrize(
    "argv, fields",
    [
        (["phase-diagram", "--beta-range", "0.4,1.6,3", "--h-range", "0.3,0.6,2"], {"order": 5000}),
        (["at-line", "--h-range", "0.3,0.6,2"], {"order": 5000}),
        (["solve-rs", "--beta", "0.5", "--h", "0.4"], {"order": 5000}),
        (["mc-free-energy", "--beta", "0.3", "--h", "0.4", "--n", "6"], {"zeta": [0.5]}),
    ],
)
def test_unread_config_fields_are_left_out_of_the_record(ref_config, tmp_path, capsys, caplog, argv, fields):
    """A file field the command does not read exits 0 as before, but is absent
    from the recorded config, and one mskglass warning names it."""
    with open(ref_config, encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({**doc, **fields}))
    with caplog.at_level(logging.WARNING, logger="mskglass"):
        assert main([*argv, "--config", str(path)]) == 0
    out = capsys.readouterr().out
    if out.startswith("#"):  # CSV: the record is the "# config:" line
        config = json.loads(out.splitlines()[1].removeprefix("# config: "))
    else:
        config = json.loads(out)["config"]
    assert list(config)[:3] == ["delta2", "lambda", "mode"] and not fields.keys() & config.keys()
    (key,) = fields
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("mskglass", logging.WARNING, f"{argv[0]} does not read config field(s) {key!r}; left out of the record")
    ]


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


def _bench_workloads(seed: int) -> dict:
    """The benchmark's command lists per workload, read from bench/run.py."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.workloads(seed)


def test_every_bench_command_exits_zero(capsys):
    """Each command of the benchmark's workloads at seed 0 runs through the CLI and exits 0,
    so a CLI change that would break the benchmark (a flag it passes, say) fails here."""
    for name, commands in _bench_workloads(0).items():
        for argv in commands:
            assert main(argv) == 0, (name, argv, capsys.readouterr().err)
    capsys.readouterr()


def test_evaluator_builds_only_the_rule_it_is_given(monkeypatch, capsys):
    """From an empty table cache, the benchmark's `certify` at (1.2, 0.3) and its k = 2 `parisi-eval` at
    (0.5, 0.4) each build one Gauss-Hermite table, of the configured order 61: every level of the
    evaluator takes the rule it is given.  The README `phase-diagram` builds once each the inner orders
    its slope rows take, 8, 16 and 32, and never 61: it reads no configured rule."""
    built, build = [], quadrature.hermgauss
    monkeypatch.setattr(quadrature, "hermgauss", lambda n: built.append(n) or build(n))
    taken, inner = set(), onersb.gauss_hermite
    monkeypatch.setattr(onersb, "gauss_hermite", lambda n: taken.add(n) or inner(n))
    point = _bench_workloads(0)["point-crosscheck"]
    assert point[1][0] == "certify" and point[5][0] == "parisi-eval" and "0.3,0.7" in point[5]
    for argv in (point[1], point[5], README_PHASE_DIAGRAM):
        quadrature.gauss_hermite.cache_clear()
        built.clear()
        assert main(argv) == 0
        if argv is not README_PHASE_DIAGRAM:
            assert built == [61], argv
    assert sorted(built) == sorted(taken) == [8, 16, 32]  # the orders the slope rows take, each built once
    capsys.readouterr()


_IMPORT_PROBE = """\
import contextlib, gc, io, json, os, sys
import mskglass.cli as cli
commands = json.loads(sys.argv[1])
cli.build_parser().parse_args(commands[0])
before, frozen = set(sys.modules), gc.get_freeze_count()
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(json.dumps({"preloaded": sorted({"numpy.ma", "numpy.random"} & before),
                  "imported": sorted(set(sys.modules) - before), "threads": threads,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS"), "tracked": len(gc.get_objects()),
                  "frozen": [frozen, gc.get_freeze_count()]}))
"""


def _run_import_probe(commands, **environ) -> dict:
    """The probe's report on `commands` in a fresh interpreter whose environment has no
    OPENBLAS_NUM_THREADS but what `environ` sets."""
    src = os.path.dirname(os.path.dirname(mskglass.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, (commands, proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def workload_probes() -> dict:
    """The probe's report on each benchmark workload at seed 0."""
    return {name: _run_import_probe(commands) for name, commands in _bench_workloads(0).items()}


def test_bench_workloads_import_nothing_while_they_run(workload_probes):
    """In a fresh interpreter set up as the benchmark sets one up (import the CLI, parse the first command),
    running a workload's commands imports no further module.  A lazy import (numpy.ma, which np.unique
    loads, cost a quarter of a phase diagram) would be paid inside the timed run; moving it to module level
    would move it into the set-up, so numpy.ma must not be loaded there either, nor numpy.random, which the
    splitmix64 draws of the finite-N commands replace.  Nor does the process run a second native thread
    (counted where /proc/self/task exists): an idle OpenBLAS worker busy-waits, doubling its CPU time."""
    threads = 1 if os.path.isdir("/proc/self/task") else None
    found = {name: [p["preloaded"], p["imported"], p["threads"], p["blas"]] for name, p in workload_probes.items()}
    assert found == {name: [[], [], threads, "1"] for name in found}


def test_bench_workloads_leave_the_import_graph_frozen(workload_probes):
    """Importing the CLI freezes the objects its imports made, so after a workload's commands fewer than
    2,000 objects are left for the collector to walk at exit (about 23,200 unfrozen, a ~20 ms walk).
    The commands freeze nothing further: the freeze happens once, at import, not per command."""
    for name, probe in workload_probes.items():
        assert probe["tracked"] < 2000, (name, probe["tracked"])
        assert probe["frozen"][0] == probe["frozen"][1], (name, probe["frozen"])


def test_a_preset_blas_thread_count_is_kept():
    """mskglass only defaults OPENBLAS_NUM_THREADS: a user's own setting survives importing the CLI.
    The variable is checked, not the thread count, which OpenBLAS caps at the CPU count."""
    assert _run_import_probe(_bench_workloads(0)["at-line"], OPENBLAS_NUM_THREADS="2")["blas"] == "2"


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
        # the phase line, the single-atom value and the slope certificate take no configured quadrature rule
        ["at-line", "--h-range", "0.3,0.3,1", "--order", "61"],
        ["solve-rs", "--beta", "0.5", "--order", "61"],
        ["phase-diagram", "--order", "61"],
    ],
)
def test_flags_a_command_does_not_read_are_refused(ref_config, capsys, argv):
    assert main(argv + ["--config", ref_config]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_phase_diagram_matches_golden_output(tmp_path, capsys):
    """The README phase-diagram scan against its checked-in output.

    The recorded config must match exactly, key order included.  Verdicts
    and which cells carry a gap must match exactly.  beta2_m must agree to
    1e-13 relative.  A gap is a certified one-step slope at zeta = 1, within
    an error estimate below 2e-14 of the slope it names, so it must agree to
    1e-15 (absolute).
    """
    golden = pathlib.Path(__file__).parent / "data" / "phase_diagram_readme.csv"
    out = tmp_path / "phase.csv"
    assert main(README_PHASE_DIAGRAM) == 0
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
            assert abs(float(row[4]) - float(ref[4])) <= 1e-15


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
                            lambda spec, tf, q, fn=fn: rows.append(np.size(q) // spec.m) or fn(spec, tf, q))
    assert main(README_PHASE_DIAGRAM) == 0
    assert sum(rows) <= 2000


def test_readme_phase_diagram_runs_as_one_batch(monkeypatch):
    """The README phase-diagram scan's 250 points are one block: one at_verdicts call and at most two
    slope-certificate calls (the first epsilon of all 123 RSB points, then the rest of the 3 it leaves),
    with no grid certificate and no parisi.evaluate call (one batch per h row made 10 at_verdicts,
    10 certify_points and 20 evaluator calls, and the grid as one block 1, 1 and 2)."""
    calls = []

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs))

    for module, name in ((cli, "at_verdicts"), (cli, "certify_points"), (onersb, "evaluate"), (onersb, "_slopes")):
        counted(module, name)
    assert main(README_PHASE_DIAGRAM) == 0
    assert calls.count("at_verdicts") == 1 and 1 <= calls.count("_slopes") <= 2
    assert "certify_points" not in calls and "evaluate" not in calls


def test_readme_phase_diagram_certifies_every_rsb_cell(capsys):
    """Every one of the README grid's 123 RSB cells carries a positive gap, the 4 near-line cells
    (beta^2 / beta2_m <= 1.012) included, which the grid certificate left empty; no other cell has one."""
    assert main(README_PHASE_DIAGRAM) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[3:]]
    assert sum(r[2] == "RSB-certified" and float(r[4]) > 0 for r in rows) == 123
    assert all(r[4] == "" for r in rows if r[2] != "RSB-certified")


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


def test_module_run_writes_its_output_file(tmp_path):
    """`python -m mskglass at-line --out` writes the README scan in full before the process exits:
    objects the import froze are not finalised by the collector at exit, so the file must be
    closed by the command itself."""
    golden = pathlib.Path(__file__).parent / "data" / "at_line_readme.csv"
    out = tmp_path / "line.csv"
    src = os.path.dirname(os.path.dirname(mskglass.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mskglass", "at-line", "--delta2", "1.5,1,1,1.2", "--lambda", "0.6,0.4",
         "--mode", "two-species-standard", "--h-range", "0.05,1.0,20", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    want_header, want_columns, want = _read_csv(golden)
    header, columns, rows = _read_csv(out)
    config = json.loads(header["config"])
    assert config.pop("out") == str(out)
    assert config == json.loads(want_header["config"])
    assert columns == want_columns and rows == want


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
