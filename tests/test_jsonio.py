"""The JSON codec: complex values as [re, im], JSON-native artifacts."""

import functools
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kamforge import jsonio
from kamforge.continuation import QTaylorData, taylor0_recursion
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
from kamforge.kam import InvariantCurve, SolverConfig, solve_curve
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
        "Frequency": curve.freq,
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
    "Frequency": ["omega", "q"],
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


def test_artifacts_in_the_two_chart_format_still_decode():
    # curve and family files once carried chart data next to omega
    # ("chart", "log_scale", "coord"); decoding reads omega alone, so the
    # stale entries, here set to nonsense, change nothing
    curve = _artifacts()["InvariantCurve"]
    d = jsonio.loads(jsonio.dumps(curve))
    d["frequency"].update(chart="outer", log_scale=-1.0)
    got = InvariantCurve.from_json_dict(d)
    assert got.freq == curve.freq
    assert jsonio.dumps(got) == jsonio.dumps(curve)

    family = _artifacts()["SampledFamily"]
    d = jsonio.loads(jsonio.dumps(family))
    d["points"] = [{"omega": p["omega"], "chart": "outer", "coord": [9.0, 9.0]}
                   for p in d["points"]]
    got = SampledFamily.from_json_dict(d)
    assert got.points == family.points
    assert jsonio.dumps(got) == jsonio.dumps(family)


@pytest.mark.parametrize("eps", [[math.nan, 0.0], [0.05, math.inf],
                                 -math.inf])
@pytest.mark.parametrize("cls", [InvariantCurve, QTaylorData])
def test_a_non_finite_eps_is_refused_on_decode(cls, eps):
    # a curve read with a NaN eps had a dynamical residual of nan
    d = jsonio.encode(_artifacts()[cls.__name__])
    d["eps"] = eps
    with pytest.raises(ValueError, match="^eps must be finite"):
        cls.from_json_dict(d)


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
    got = jsonio.to_complex(entries, "series", "coeffs")
    assert got.dtype == np.complex128
    assert got.tobytes() == expect.tobytes()
    # encode then decode returns the same bits
    back = jsonio.to_complex(jsonio.encode(expect), "series", "coeffs")
    assert back.tobytes() == expect.tobytes()
    assert jsonio.to_complex([], "series", "coeffs").shape == (0,)


# an int past a double's range ended in numpy's OverflowError
@pytest.mark.parametrize("bad", [[[1, 2, 3]], [[1]], ["1"], [[1, "a"]],
                                 [None], 5, {"N": 0}, [True], [0.5, False],
                                 [[1.0, True]], [[False, 0.5]], [10**400],
                                 [[0.5, -10**400]]])
def test_to_complex_rejects_malformed_entries(bad):
    with pytest.raises(ValueError, match="^Taylor data JSON 'eps' "):
        jsonio.to_complex(bad, "Taylor data", "eps")


# both were refused as "expected a list of numbers or [re, im] pairs",
# naming neither the artifact nor the key
@pytest.mark.parametrize("name,change,message", [
    ("FourierSeries", lambda d: d.update(coeffs=5),
     "series JSON 'coeffs' must be a list of numbers or [re, im] pairs, got 5"),
    ("SampledFamily", lambda d: d["values"].__setitem__(0, "x"),
     "sampled family JSON 'values[0]' must be a list of numbers or [re, im] "
     "pairs, got 'x'"),
    ("SampledFamily", lambda d: d["derivs"][0].__setitem__(1, [1.0]),
     "sampled family JSON 'derivs[0]' entries must be numbers or [re, im] "
     "pairs, got [1.0]"),
])
def test_to_complex_names_the_artifact_and_the_key(name, change, message):
    d = _fresh(name)
    change(d)
    with pytest.raises(ValueError) as info:
        READERS[name].from_json_dict(d)
    assert str(info.value) == message


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
    assert jsonio.to_complex(back["z"], "test", "z").tobytes() == z.tobytes()
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


def test_dump_path_streams_the_indented_text_into_its_file(tmp_path):
    # the whole text was built before the first byte was written: 4.5 MB
    # of tracemalloc peak for this 0.9 MB file
    payload = export_set_geometry(DiophantineClass(6.0, 0.5, 300)).to_json_dict()
    path = tmp_path / "geometry.json"
    tracemalloc.start()
    try:
        jsonio.dump_path(payload, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size
    assert path.read_text() == jsonio.dumps(payload, indent=2) + "\n"


def _decoded(name, **changes):
    d = jsonio.loads(jsonio.dumps(_artifacts()[name]))
    for key, value in changes.items():
        if value is None:
            del d[key]
        else:
            d[key] = value
    return d


def _with_point(name, point):
    d = _decoded(name)
    d["points"][0] = point
    return d


def _with_report_key(name, key):
    d = _decoded(name)
    d["report"][key] = 0
    return d


# a missing key ended in KeyError, an unknown report key in TypeError, and
# any other unknown key was dropped without a word
READER_CASES = {
    "curve empty": (InvariantCurve, lambda: {}, "curve JSON has no 'frequency' key"),
    "curve unknown": (InvariantCurve,
                      lambda: _decoded("InvariantCurve", extra=1),
                      "curve JSON has an unknown 'extra' key"),
    "curve report unknown": (
        InvariantCurve, lambda: _with_report_key("InvariantCurve", "extra"),
        "curve report JSON has an unknown 'extra' key"),
    "curve report missing": (
        InvariantCurve,
        lambda: _decoded("InvariantCurve", report={"method": "newton"}),
        "curve report JSON has no 'converged' key"),
    "curve frequency missing": (
        InvariantCurve, lambda: _decoded("InvariantCurve", frequency={}),
        "curve frequency JSON has no 'omega' key"),
    "taylor empty": (QTaylorData, lambda: {}, "Taylor data JSON has no 'eps' key"),
    "taylor unknown": (QTaylorData, lambda: _decoded("QTaylorData", extra=1),
                       "Taylor data JSON has an unknown 'extra' key"),
    "family no values": (SampledFamily,
                         lambda: _decoded("SampledFamily", values=None),
                         "sampled family JSON has no 'values' key"),
    "family unknown": (SampledFamily,
                       lambda: _decoded("SampledFamily", extra=1),
                       "sampled family JSON has an unknown 'extra' key"),
    "family point no omega": (
        SampledFamily, lambda: _with_point("SampledFamily", {"q": [0.3, 0.0]}),
        "sampled family point JSON has no 'omega' key"),
    "family point not an object": (
        SampledFamily, lambda: _with_point("SampledFamily", 0.3),
        "sampled family point JSON must be an object, got 0.3"),
    "series unknown": (FourierSeries,
                       lambda: _decoded("FourierSeries", extra=1),
                       "series JSON has an unknown 'extra' key"),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_artifact_readers_refuse_a_missing_or_unknown_key_by_name(case):
    cls, d, message = READER_CASES[case]
    with pytest.raises(ValueError) as info:
        cls.from_json_dict(d())
    assert str(info.value) == message


@functools.cache
def _text(name):
    return jsonio.dumps(_artifacts()[name])


def _fresh(name):
    """A decoded copy of artifact *name*, as its file reads back."""
    return jsonio.loads(_text(name))


# a number, null, {} or a bool ended in TypeError, a string in a message
# that named no key, and {} read as no entries at all
@pytest.mark.parametrize("value", [5, 0.5, None, True, "x", {}])
@pytest.mark.parametrize("cls,artifact,key", [
    (QTaylorData, "Taylor data", "orders"),
    (SampledFamily, "sampled family", "points"),
    (SampledFamily, "sampled family", "values"),
    (SampledFamily, "sampled family", "derivs"),
])
def test_a_list_valued_key_must_hold_a_list(cls, artifact, key, value):
    d = _fresh(cls.__name__)
    d[key] = value
    with pytest.raises(ValueError) as info:
        cls.from_json_dict(d)
    assert str(info.value) == (
        f"{artifact} JSON {key!r} must be a list, got {value!r}")


# each of these read back, and to_json_dict wrote it out again
@pytest.mark.parametrize("key,value,kind", [
    ("method", 1, "a string"),
    ("method", None, "a string"),
    ("converged", "yes", "a bool"),
    ("converged", 1, "a bool"),
    ("iterations", "x", "an int >= 0"),
    ("iterations", -1, "an int >= 0"),
    ("iterations", 4.0, "an int >= 0"),
    ("iterations", True, "an int >= 0"),
    ("residual_history", 3, "a list of numbers"),
    ("residual_history", [0.5, "x"], "a list of numbers"),
    ("residual_history", [0.5, False], "a list of numbers"),
    ("quadratic_fit_slope", None, "a number"),
    ("quadratic_fit_slope", "2.0", "a number"),
    ("aliasing_tail", [0.0], "a number"),
    ("aliasing_tail", True, "a number"),
    ("diagnostics", [], "an object"),
    ("diagnostics", "x", "an object"),
])
def test_a_curve_report_field_must_be_of_its_written_kind(key, value, kind):
    d = _fresh("InvariantCurve")
    d["report"][key] = value
    with pytest.raises(ValueError) as info:
        InvariantCurve.from_json_dict(d)
    assert str(info.value) == (
        f"curve report JSON {key!r} must be {kind}, got {value!r}")


# each of these read back, and to_json_dict wrote "beta":[NaN,...] out again
@pytest.mark.parametrize("beta", [[math.nan, 0.0], [0.5, math.inf],
                                  -math.inf])
def test_a_curve_refuses_a_non_finite_beta_by_name(beta):
    d = _fresh("InvariantCurve")
    d["report"]["beta"] = beta
    with pytest.raises(ValueError, match="^beta must be finite, got "):
        InvariantCurve.from_json_dict(d)


# the reader never looked at this key, so "x" read back without a word
@pytest.mark.parametrize("value", ["x", None, [0.5], True, {}])
def test_a_curve_dynamical_residual_must_be_a_number(value):
    d = _fresh("InvariantCurve")
    d["dynamical_residual"] = value
    with pytest.raises(ValueError) as info:
        InvariantCurve.from_json_dict(d)
    assert str(info.value) == (
        f"curve JSON 'dynamical_residual' must be a number, got {value!r}")
    d["dynamical_residual"] = 1.5e-15
    InvariantCurve.from_json_dict(d)


def test_a_curve_report_reads_nan_numbers_and_writes_them_back():
    d = _fresh("InvariantCurve")
    d["report"].update(quadratic_fit_slope=math.nan, aliasing_tail=math.nan,
                       residual_history=[math.nan, 0.5])
    text = jsonio.dumps(d)
    assert jsonio.dumps(InvariantCurve.from_json_dict(jsonio.loads(text))) == text


# c1hol_norm_estimate returned (nan, inf, 0.0) for the first of these
@pytest.mark.parametrize("key,entry", [("values", [math.nan, 0.0]),
                                       ("values", math.inf),
                                       ("derivs", [0.0, -math.inf])])
def test_a_family_refuses_a_non_finite_entry_by_key(key, entry):
    d = _fresh("SampledFamily")
    d[key][0][1] = entry
    with pytest.raises(ValueError) as info:
        SampledFamily.from_json_dict(d)
    assert str(info.value) == (
        f"sampled family JSON {key!r} must hold finite entries only")


def _paths(node, path=()):
    """The path of *node* and of every value under it, depth first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


READERS = {"FourierSeries": FourierSeries, "InvariantCurve": InvariantCurve,
           "QTaylorData": QTaylorData, "SampledFamily": SampledFamily}

# one value of each JSON kind the stdlib reads, ints past a double's range too
JSON_VALUES = st.one_of(st.none(), st.booleans(),
                        st.integers(-2**1100, 2**1100),
                        st.floats(allow_nan=False), st.just(math.nan),
                        st.text(max_size=3), st.just([]), st.just({}))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_a_reader_meets_any_replaced_value_with_value_error(data):
    # a depth first, then a path at that depth: the few top-level keys are
    # not drowned among the many coefficient entries
    name = data.draw(st.sampled_from(sorted(READERS)))
    d = _fresh(name)
    by_depth = {}
    for path in _paths(d):
        by_depth.setdefault(len(path), []).append(path)
    depth = data.draw(st.sampled_from(sorted(by_depth)))
    path = data.draw(st.sampled_from(by_depth[depth]))
    value = data.draw(JSON_VALUES)
    if path:
        parent = d
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        d = value
    try:
        READERS[name].from_json_dict(d)
    except ValueError:
        pass
