"""The package's public surface is the code the package itself runs, and it takes and gives batches of rows."""

import ast
import pathlib
import re
from collections import Counter

import numpy as np
import pytest

import mskglass
from mskglass import (
    BadDimension, NonmonotoneOverlap, ParisiParams, TempField, Unsupported, gauss_hermite, log_cosh,
    map_derivatives, overlap_contractions, parisi_value, positivity_witness, rs_functional, stability_matrices,
    two_species_thresholds,
)
from mskglass.model import inverse_beta2_m

SRC = pathlib.Path(mskglass.__file__).parent
README = pathlib.Path(__file__).parents[1] / "README.md"


def _uses(tree) -> Counter:
    """How often each name is loaded or read as an attribute under `tree`;
    imports and docstrings hold no such node."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_public_definition_is_used_by_the_package():
    """A public top-level function or class that no code in src/mskglass
    outside its own body calls, subclasses, annotates with or otherwise
    names exists only for tests: the API is what the package runs."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{name}: {node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and uses[node.name] == _uses(node)[node.name]]
    assert not unused, f"public definitions no package code uses: {unused}"


def test_every_readme_python_block_runs(capsys):
    """Each python block of the README runs as written, each in a fresh namespace, so a signature
    change cannot leave the quickstart behind."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out  # the quickstart point is RSB-certified and prints its certificate


def test_the_solver_layer_takes_no_quadrature_rule():
    """rs.py, the solver and the single-atom value, imports nothing from parisi and names neither
    gauss_hermite nor QuadRule: no Gauss-Hermite rule reaches `solve_points` or `rs_functional`."""
    tree = ast.parse((SRC / "rs.py").read_text())
    modules = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert not [m for m in modules if m and m.split(".")[-1] == "parisi"], modules
    assert not {"gauss_hermite", "QuadRule"} & (set(names) | set(_uses(tree))), names


def test_the_phase_diagram_path_takes_no_quadrature_rule():
    """`onersb._slopes`, `onersb.certify_slopes` and `cli._phase_rows`, the path of `phase-diagram`, take no
    `rule` parameter: the slope's inner Gauss-Hermite orders follow from each row's own noise scale."""
    wanted = {("onersb", "_slopes"), ("onersb", "certify_slopes"), ("cli", "_phase_rows")}
    params = {(name, node.name): [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
              for name in ("onersb", "cli") for node in ast.parse((SRC / f"{name}.py").read_text()).body
              if isinstance(node, ast.FunctionDef) and (name, node.name) in wanted}
    assert params.keys() == wanted and not [key for key, args in params.items() if "rule" in args], params


def _cases(spec, rule):
    """Per kernel (or evaluator batch axis): the rows of a batch, arrays sharing a leading axis, the
    kernel called on them, the axis of its results that follows the rows, and whether a row alone is
    bit-equal to its row of the batch."""
    rng = np.random.default_rng(3)
    gamma6, beta6 = rng.uniform(0.05, 0.6, (6, 2)), rng.uniform(0.2, 1.6, 6)
    gammas = np.array([spec.lam, [0.31, 0.22], np.array([0.31, 0.22]) * 2.0**-600, [1e-320, 1e-321], [0.6, 0.4]])
    # the third ladder has a zero increment (a level that drops out exactly), the fourth one in one species only
    ladders = np.array([[[0.2, 0.5], [0.3, 0.6]], [[0.05, 0.9], [0.1, 0.15]], [[0.4, 0.4], [0.35, 0.35]],
                        [[0.4, 0.4], [0.2, 0.7]], [[0.1, 0.8], [0.3, 0.95]]])
    ladder, zetas = np.array([[0.2, 0.5, 0.7], [0.3, 0.6, 0.65]]), np.array([[0.1, 0.4], [0.3, 0.6], [0.5, 0.95]])

    def weights(q, quad):
        return lambda zeta: parisi_value(spec, TempField(beta=1.3, h=0.35), ParisiParams(zeta=zeta, q=q), quad)

    def ladder_values(beta, h, q):
        return parisi_value(spec, TempField(beta=beta, h=h), ParisiParams(zeta=[[0.1], [0.45], [0.95]], q=q), rule)

    return {
        # q = 0 at h > 0 and at h = 0 takes the closed form, h = 30 and 100 the tail form, the others the rule,
        # each row with its own nodes
        "map_derivatives": ((np.array([0.4, 1.2, 1.6, 3.0, 0.9, 1.2, 2.0]), np.array([0.3, 0.3, 0.5, 0.05, 0.0, 100.0, 30.0]),
                             np.array([[0.1, 0.2], [0.0, 0.0], [0.7, 0.4], [0.9, 0.95], [0.0, 0.0], [0.9, 0.8], [0.5, 0.6]])),
                            lambda beta, h, q: map_derivatives(spec, TempField(beta=beta, h=h), q), 0, True),
        "stability_matrices": ((beta6, np.full(6, 0.3), gamma6),
                               lambda beta, h, g: stability_matrices(spec, TempField(beta=beta, h=h), g), 0, True),
        # diagonal either way, no witness, Perron, and a K_12 < 0 matrix outside the witness's domain
        "positivity_witness": ((np.array([np.diag([1.0, -1.0]), np.diag([-1.0, 1.0]), -np.eye(2),
                                          [[-1.0, 2.0], [2.0, -1.0]], [[1.0, -0.5], [-0.5, 0.3]]]),),
                               positivity_witness, 0, True),
        # the fourth gamma is subnormal, where every threshold is inf
        "two_species_thresholds": ((gammas,), lambda g: two_species_thresholds(spec, g), 0, True),
        "inverse_beta2_m": ((gammas,), lambda g: inverse_beta2_m(spec, g), 0, True),
        "overlap_contractions": ((rng.uniform(0.0, 1.0, (5, 2)),), lambda q: overlap_contractions(spec, q), 0,
                                 True),
        "rs_functional": ((np.array([0.9, 0.9, 0.9, 0.9, 1.6]), np.array([0.3, 0.3, 0.3, 0.3, 0.05]),
                           np.array([[0.0, 0.0], [0.2, 0.5], [0.7, 0.3], [1.0, 1.0], [0.5, 0.9]])),
                          lambda beta, h, q: rs_functional(spec, TempField(beta=beta, h=h), q), 0, True),
        "evaluate-ladders": ((np.array([1.3, 1.3, 1.3, 1.3, 0.8]), np.array([0.35, 0.35, 0.35, 0.35, 0.6]), ladders),
                             ladder_values, 0, False),
        "evaluate-weights-k1": ((zetas[:, 1:],), weights(ladder[:, 1:], rule), 1, False),
        "evaluate-weights-k2": ((zetas,), weights(ladder, gauss_hermite(15)), 1, False),
        "log_cosh": ((np.array([-800.0, -1.5, 0.0, 1e-9, 30.0]),), log_cosh, 0, True),
    }


@pytest.mark.parametrize("case", ["map_derivatives", "stability_matrices", "positivity_witness",
                                  "two_species_thresholds", "inverse_beta2_m", "overlap_contractions", "rs_functional",
                                  "evaluate-ladders", "evaluate-weights-k1", "evaluate-weights-k2",
                                  "log_cosh"])
def test_row_convention(case, reference_spec, rule):
    """A kernel given a batch of one returns results whose batch axis has length 1 (a one-entry list
    for the witness), never a Python float or a bare object; and each row of a batch gives the
    results of that row alone, bit for bit.  The evaluator's rows agree to 1e-14 instead: which
    quadrature nodes it skips is decided per chunk of rows (`parisi._kept`)."""
    rows, call, axis, exact = _cases(reference_spec, rule)[case]
    whole = call(*rows)
    for i in range(len(rows[0])):
        alone = call(*(r[i : i + 1] for r in rows))
        for got, batch in zip(*(list(x) if isinstance(x, tuple) else [x] for x in (alone, whole))):
            if isinstance(batch, list):  # the witness: one direction or None per matrix
                assert isinstance(got, list) and len(got) == 1
                got, want = got[0], batch[i]
                assert (got is None) == (want is None) and (want is None or got.tobytes() == want.tobytes())
                continue
            want = np.take(batch, [i], axis=axis)
            assert isinstance(got, np.ndarray) and got.shape == want.shape and got.shape[axis] == 1
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_kernels_refuse_other_shapes(reference_spec, rule):
    """Kernels take rows only: one gamma vector, one matrix or a q without a row per point is refused, as
    is an overlap outside [0, 1]; ParisiParams makes a vector of weights and one ladder batches of one, and
    `rs_functional` one overlap vector."""
    spec, one, two = reference_spec, TempField(beta=1.0, h=0.3), TempField(beta=[1.0, 1.2], h=[0.3, 0.3])
    for call in (lambda: two_species_thresholds(spec, [0.6, 0.4]), lambda: inverse_beta2_m(spec, [0.6, 0.4]),
                 lambda: stability_matrices(spec, one, [0.3, 0.2]), lambda: positivity_witness(np.eye(2)),
                 lambda: stability_matrices(spec, two, np.full((2, 1), 0.3)),
                 lambda: rs_functional(spec, two, [0.2, 0.5]), lambda: rs_functional(spec, one, [0.2, 1.5]),
                 lambda: positivity_witness(np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]]))):  # not symmetric
        with pytest.raises(ValueError):
            call()
    with pytest.raises(Unsupported):
        positivity_witness(np.stack([np.diag([-1.0, -1.0, 1.0])] * 2))
    with pytest.raises(BadDimension):
        map_derivatives(spec, two, np.zeros(2))
    assert rs_functional(spec, one, [0.2, 0.5]).shape == (1,)
    params = ParisiParams(zeta=[0.45], q=[[0.2, 0.5], [0.3, 0.6]])
    assert params.zeta.shape == (1, 1) and params.q.shape == (1, 2, 2)
    with pytest.raises(ValueError):
        parisi_value(spec, two, params, rule)  # two points for one ladder
    ladders = np.array([[[0.2, 0.5], [0.3, 0.6]], [[0.05, 0.9], [0.1, 0.15]], [[0.4, 0.4], [0.35, 0.35]],
                        [[0.4, 0.4], [0.2, 0.7]]])
    four = TempField(beta=np.full(4, 1.3), h=np.full(4, 0.35))
    vector, batch = (parisi_value(spec, four, ParisiParams(zeta=z, q=ladders), rule)
                     for z in ([0.45], [[0.1], [0.45], [0.95]]))
    np.testing.assert_allclose(vector, batch[:, 1:2], rtol=1e-14, atol=0)
    with pytest.raises(NonmonotoneOverlap):
        ParisiParams(zeta=[[0.1], [0.45]], q=np.array([[[0.2, 0.5], [0.3, 0.6]], [[0.5, 0.2], [0.3, 0.6]]]))
