"""The JSON codec: complex values as [re, im], JSON-native artifacts."""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from kamforge import jsonio
from kamforge.continuation import taylor0_recursion
from kamforge.errors import ResonanceError
from kamforge.fourier import FourierSeries
from kamforge.frequency import (
    DiophantineClass,
    SampledFamily,
    export_set_geometry,
    from_omega,
    from_q,
    lambda_k,
)
from kamforge.kam import SolverConfig, solve_curve
from kamforge.obstruction import RationalFreq, obstruction_order

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _artifacts():
    curve = solve_curve(FourierSeries.cos(), from_omega(GOLDEN), 0.05,
                        SolverConfig(cutoff=32))
    family = SampledFamily(
        points=[from_q(0.2 + 0.1j), from_q(0.3)],
        values=[np.array([1.0 + 2.0j, -0.5j]), np.array([0.25, 1.0 + 0j])],
        derivs=[np.array([0.5 - 1.0j, 2.0 + 0j]), None])
    return {
        "FourierSeries": curve.u,
        "SolveReport": curve.report,
        "InvariantCurve": curve,
        "QTaylorData": taylor0_recursion(FourierSeries.cos(), 0.05 + 0.01j,
                                         N_q=5),
        "ObstructionReport": obstruction_order(FourierSeries.cos(),
                                               RationalFreq(1, 3)),
        "SetGeometry": export_set_geometry(DiophantineClass(6.0, 0.5, 50),
                                           boundary_n=16),
        "SampledFamily": family,
    }


def test_every_artifact_is_json_native():
    # the stdlib encoder knows no complex or numpy values
    for name, artifact in _artifacts().items():
        d = jsonio.encode(artifact)
        assert json.loads(json.dumps(d)) == d, name


# Each artifact's top-level keys, in the order its files print them.  The
# reports' keys are their dataclass fields, so reordering a field fails here.
ARTIFACT_KEYS = {
    "FourierSeries": ["N", "coeffs"],
    "SolveReport": ["method", "converged", "iterations", "residual_history",
                    "quadratic_fit_slope", "beta", "aliasing_tail",
                    "diagnostics"],
    "QTaylorData": ["eps", "f_ref", "orders"],
    "ObstructionReport": ["p", "m", "K", "A", "reflected", "exactness",
                          "orders_computed", "n_star", "threshold",
                          "witness_norm", "obstruction_witness",
                          "gamma_engine", "gamma_oracle", "relative_gap",
                          "betas", "gammas_engine", "gammas_oracle"],
    "InvariantCurve": ["frequency", "eps", "u", "v", "f", "report"],
    "SetGeometry": ["M", "tau", "m_max", "first_untested_denominator",
                    "total_gap_measure", "gaps", "boundary_samples"],
    "SampledFamily": ["points", "values", "derivs"],
}


def test_every_artifact_keeps_its_key_order():
    artifacts = _artifacts()
    assert set(artifacts) == set(ARTIFACT_KEYS)
    for name, artifact in artifacts.items():
        assert list(jsonio.encode(artifact)) == ARTIFACT_KEYS[name], name


def test_encode_writes_a_dataclass_by_its_fields_in_order():
    @dataclass
    class Result:
        z: complex
        xs: np.ndarray
        inner: "Result | None" = None

    obj = Result(1j, np.array([0.5, -1.0]), Result(-2.0 + 0j, np.zeros(0)))
    out = jsonio.encode(obj)
    assert out == {"z": [0.0, 1.0], "xs": [0.5, -1.0],
                   "inner": {"z": [-2.0, 0.0], "xs": [], "inner": None}}
    assert list(out) == ["z", "xs", "inner"]
    assert jsonio.dumps(obj) == jsonio.dumps(out)


def test_encode_complex_and_numpy_values():
    raw = {"z": 1.5 - 2.0j, "zs": np.array([1j, -3.0]),
           "x": np.float64(0.25), "n": np.int64(7), "b": np.bool_(True),
           "pair": (np.complex128(-1j), None), "ld": np.clongdouble(0.5 + 1j)}
    out = jsonio.encode(raw)
    assert out == {"z": [1.5, -2.0], "zs": [[0.0, 1.0], [-3.0, 0.0]],
                   "x": 0.25, "n": 7, "b": True, "pair": [[-0.0, -1.0], None],
                   "ld": [0.5, 1.0]}
    assert [type(v) for v in (out["x"], out["n"], out["b"])] == [float, int, bool]
    json.dumps(out)


def test_to_complex_round_trips_bit_for_bit():
    tiny = 5e-324
    entries = [-0.0, [-0.0, tiny], 3, [1, -0.0], tiny, [-tiny, -0.0], 0.5]
    expect = np.array([0.0, 0.0, 3.0, 0.0, tiny, 0.0, 0.5]).astype(np.complex128)
    expect.real[[0, 1, 3, 5]] = [-0.0, -0.0, 1.0, -tiny]
    expect.imag[[1, 3, 5]] = [tiny, -0.0, -0.0]
    got = jsonio.to_complex(entries)
    assert got.dtype == np.complex128
    assert got.tobytes() == expect.tobytes()
    # encode then decode returns the same bits
    assert jsonio.to_complex(jsonio.encode(expect)).tobytes() == expect.tobytes()
    assert jsonio.to_complex([]).shape == (0,)


@pytest.mark.parametrize("bad", [[[1, 2, 3]], [[1]], ["1"], [[1, "a"]],
                                 [None], 5, {"N": 0}, [True], [0.5, False],
                                 [[1.0, True]], [[False, 0.5]]])
def test_to_complex_rejects_malformed_entries(bad):
    with pytest.raises(ValueError):
        jsonio.to_complex(bad)


def test_error_diagnostics_are_json_native():
    with pytest.raises(ResonanceError) as info:
        lambda_k(from_omega(0.0), 1)
    diag = info.value.diagnostics
    assert diag["omega"] == [0.0, 0.0]
    json.dumps(diag)


@pytest.mark.parametrize("indent", [None, 2])
def test_dumps_keeps_the_sign_of_zero(indent):
    z = np.array([complex(-0.0, -0.0), complex(-0.0, 1.0),
                  complex(0.5, -0.0), 0j])
    text = jsonio.dumps({"z": z, "x": -0.0}, indent=indent)
    back = jsonio.loads(text)
    assert jsonio.to_complex(back["z"]).tobytes() == z.tobytes()
    assert math.copysign(1.0, back["x"]) == -1.0


def test_dumps_layout_and_float_text():
    obj = {"a": [1.0, 2], "b": {}, "c": []}
    assert jsonio.dumps(obj) == '{"a":[1.0,2],"b":{},"c":[]}'
    assert jsonio.dumps(obj, indent=2) == (
        '{\n  "a": [\n    1.0,\n    2\n  ],\n  "b": {},\n  "c": []\n}')
    back = jsonio.loads(jsonio.dumps([1.0, np.float64(-3.0), 1e16]))
    assert [type(v) for v in back] == [float, float, float]
    assert jsonio.dumps([math.nan, math.inf, -math.inf]) == (
        "[NaN,Infinity,-Infinity]")
    x = 0.1 + 0.2
    assert jsonio.dumps(x) == repr(x) and jsonio.loads(repr(x)) == x


@pytest.mark.parametrize("bad", [object(), {1, 2}, np.array([object()])])
def test_dumps_rejects_unencodable_objects_with_type_error(bad):
    for indent in (None, 2):
        with pytest.raises(TypeError):
            jsonio.dumps({"x": [bad]}, indent=indent)
