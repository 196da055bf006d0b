"""Truncated Fourier series: arithmetic, composition, inversion, clamping."""

import math
import pickle
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kamforge.fourier as fourier
from kamforge.errors import NearSingularError, OverflowRiskError
from kamforge.fourier import (
    EXP_CAP,
    HARD_CAP,
    FourierSeries,
    clamp_small,
    compose_id_plus,
    composition_jet,
    derivative,
    evaluate,
    grid_values,
    invert_pointwise,
    mean,
    product,
    sup_norm,
    truncate,
)
from kamforge.frequency import from_omega
from kamforge.operators import SHIFT_PLUS, apply, multiplier_table

TWO_PI = 2.0 * np.pi


def random_series(rng, N, amp=1.0, decay=0.5):
    ks = np.arange(-N, N + 1)
    mag = amp * np.exp(-decay * np.abs(ks))
    return FourierSeries(mag * (rng.standard_normal(2 * N + 1)
                                + 1j * rng.standard_normal(2 * N + 1)))


def eval_direct(phi, theta):
    # independent slow oracle: plain sum of c_k exp(2 pi i k theta)
    total = 0j
    for k in range(-phi.N, phi.N + 1):
        total += phi.coeff(k) * np.exp(2j * np.pi * k * theta)
    return total


def test_validation():
    with pytest.raises(ValueError):
        FourierSeries([1.0, 2.0])            # even length
    with pytest.raises(ValueError):
        FourierSeries([[1.0], [2.0], [3.0]])  # not 1-d
    with pytest.raises(ValueError):
        FourierSeries([1.0, np.inf, 1.0])


def test_a_series_past_the_cap_or_off_its_count_is_refused():
    with pytest.raises(ValueError, match=f"^cutoff exceeds hard cap {HARD_CAP}$"):
        FourierSeries(np.zeros(2 * HARD_CAP + 3))
    with pytest.raises(ValueError, match="^coeff count does not match N$"):
        FourierSeries.from_json_dict({"N": 2, "coeffs": [0.5, 0.0, 0.5]})


def test_immutability_and_pickle():
    s = FourierSeries([1.0, 2.0, 3.0])
    with pytest.raises(AttributeError):
        s.coeffs = np.zeros(3)
    with pytest.raises(ValueError):
        s.coeffs[0] = 9.0  # numpy read-only buffer
    t = pickle.loads(pickle.dumps(s))
    assert np.array_equal(t.coeffs, s.coeffs)


def test_coeff_indexing():
    s = FourierSeries.basis(3, 2.0)
    assert s.N == 3
    assert s.coeff(3) == 2.0
    assert s.coeff(-3) == 0.0
    assert s.coeff(99) == 0.0


def test_cos_shorthand():
    f = FourierSeries.cos()
    assert f.N == 1
    assert f.coeff(1) == 0.5 and f.coeff(-1) == 0.5 and f.coeff(0) == 0.0
    # cos(2 pi theta) at theta = 0, 1/4, 1/2
    assert abs(evaluate(f, 0.0) - 1.0) < 1e-15
    assert abs(evaluate(f, 0.25)) < 1e-15
    assert abs(evaluate(f, 0.5) + 1.0) < 1e-15


def test_evaluate_matches_direct_sum():
    rng = np.random.default_rng(7)
    s = random_series(rng, 9)
    for theta in [0.0, 0.37, 1.91, 0.1 + 0.02j, -0.3 - 0.01j]:
        assert abs(evaluate(s, theta) - eval_direct(s, theta)) < 1e-12


def eval_dense(phi, theta, dtype=np.complex128):
    # the dense route: a G x (2N+1) matrix of exp(2 pi i k z), times c,
    # formed 256 points at a time
    two_pi = 2 * np.arccos(np.real(dtype(-1)))
    ks = np.arange(-phi.N, phi.N + 1)
    c = phi.coeffs.astype(dtype)
    z = np.asarray(theta, dtype=dtype)
    return np.concatenate([np.exp(1j * two_pi * np.outer(z[i:i + 256], ks)) @ c
                           for i in range(0, z.size, 256)])


@pytest.mark.parametrize("N", [0, 1, 9, 64, 3249])
def test_evaluate_matches_the_dense_sum(N):
    # a series analytic on |Im z| < 0.02, at real z and at |Im z| <= 0.01
    rng = np.random.default_rng(N)
    s = random_series(rng, N, decay=TWO_PI * 0.02)
    theta = rng.uniform(-1.0, 2.0, 512) + 0j
    theta[256:] += 1j * rng.uniform(-0.01, 0.01, 256)
    dense = eval_dense(s, theta)
    err = np.max(np.abs(evaluate(s, theta) - dense))
    assert err <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("height", [0.03, 0.1])
@pytest.mark.parametrize("N", [9, 64, 1000])
def test_evaluate_off_the_circle_is_as_accurate_as_the_dense_sum(N, height):
    # flat coefficients, so the top modes dominate off the circle.  Both
    # errors are taken against an extended-precision dense sum, pointwise
    # relative to sum_k |c_k exp(2 pi i k z)|, the scale of the rounding of
    # any summation order
    rng = np.random.default_rng(N)
    s = random_series(rng, N, decay=0.0)
    theta = (rng.uniform(0.0, 1.0, 2048)
             + 1j * rng.uniform(-height, height, 2048))
    ref = eval_dense(s, theta, np.clongdouble)
    ks = np.arange(-N, N + 1)
    scale = np.exp(-TWO_PI * np.outer(theta.imag, ks)) @ np.abs(s.coeffs)

    def err(vals):
        return float(np.max(np.abs(vals - ref) / scale))

    assert err(evaluate(s, theta)) <= 2.0 * err(eval_dense(s, theta))


@pytest.mark.parametrize("N", [1, 16, 17, 50])
def test_evaluate_matches_the_direct_sum_up_to_the_exponent_guard(N):
    # n = N modes a side: 1, a perfect square (B = 4 divides 16) and two
    # counts that leave the last block of B short (B = 5 and 8).  Points at
    # real z and at heights up to the guard 2 pi N |Im z| = EXP_CAP, against
    # an extended-precision direct sum, pointwise relative to the rounding
    # scale of forming exp(2 pi i k z) at all: 2^-52 (1 + 2 pi N |z|) times
    # sum_k |c_k exp(2 pi i k z)|
    rng = np.random.default_rng(N)
    s = FourierSeries(rng.standard_normal(2 * N + 1)
                      + 1j * rng.standard_normal(2 * N + 1))
    top = EXP_CAP / (TWO_PI * N) * (1.0 - 1e-9)
    height = np.concatenate([np.zeros(64), rng.uniform(-top, top, 192),
                             [top, -top]])
    theta = rng.uniform(-1.0, 2.0, height.size) + 1j * height
    ref = eval_dense(s, theta, np.clongdouble)
    ks = np.arange(-N, N + 1)
    size = np.exp(-TWO_PI * np.outer(theta.imag, ks)) @ np.abs(s.coeffs)
    rounding = 2.0 ** -52 * (1.0 + TWO_PI * N * np.abs(theta)) * size
    assert np.all(np.abs(evaluate(s, theta) - ref) <= 4.0 * rounding)


@pytest.mark.parametrize("N", [1, 9, 64])
def test_evaluate_stays_finite_and_dense_accurate_up_to_exponent_699(N):
    # one exponential w a point: the negative modes run on 1/w, whose N-th
    # power reaches e^699 at the top height; the error bound is the one of
    # test_evaluate_matches_the_dense_sum, on each side of the circle
    rng = np.random.default_rng(N)
    s = random_series(rng, N)
    top = 699.0 / (TWO_PI * N)
    for sign in (1.0, -1.0):
        theta = rng.uniform(-1.0, 2.0, 256) + 1j * sign * top * np.concatenate(
            [[1.0], rng.uniform(0.0, 1.0, 255)])
        vals, dense = evaluate(s, theta), eval_dense(s, theta)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_evaluate_memory_stays_below_the_dense_matrix():
    # the dense route would allocate 8192 x 4099 x 16 B = 537 MB here
    rng = np.random.default_rng(22)
    s = random_series(rng, 2049, decay=0.0)
    theta = np.arange(8192) / 8192
    tracemalloc.start()
    try:
        evaluate(s, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_mean_is_zero_mode():
    rng = np.random.default_rng(8)
    s = random_series(rng, 6)
    assert mean(s) == s.coeff(0)


def test_addition_aligns_cutoffs():
    rng = np.random.default_rng(9)
    a = random_series(rng, 4)
    b = random_series(rng, 7)
    c = (a + b) - b
    assert c.N == 7
    assert sup_norm(c - a) < 1e-15  # up to add/sub rounding
    assert np.array_equal((2.0 * a).coeffs, a.coeffs * 2.0)


def test_product_is_convolution():
    # basis(j, x) * basis(k, y) = basis(j + k, x y) exactly
    p = product(FourierSeries.basis(2, 1.5), FourierSeries.basis(3, -2.0))
    assert p.coeff(5) == -3.0
    assert sup_norm(p - FourierSeries.basis(5, -3.0)) == 0.0
    rng = np.random.default_rng(10)
    a = random_series(rng, 5)
    b = random_series(rng, 3)
    # independent oracle: numpy full convolution
    conv = np.convolve(a.coeffs, b.coeffs)
    assert np.max(np.abs(product(a, b).coeffs - conv)) < 1e-15


def test_derivative_law():
    k = 4
    d = derivative(FourierSeries.basis(k, 1.0))
    assert abs(d.coeff(k) - 2j * np.pi * k) < 1e-15
    # derivative of a product = Leibniz (on a random instance)
    rng = np.random.default_rng(11)
    a = random_series(rng, 4)
    b = random_series(rng, 4)
    lhs = derivative(product(a, b))
    rhs = product(derivative(a), b) + product(a, derivative(b))
    assert sup_norm(lhs - rhs) < 1e-12 * max(sup_norm(lhs), 1.0)


def test_pad_truncate_roundtrip():
    rng = np.random.default_rng(12)
    s = random_series(rng, 5)
    padded = FourierSeries(np.pad(s.coeffs, (7, 7)))
    assert padded.N == 12
    back, tail = truncate(padded, 5)
    assert tail == 0.0
    assert np.array_equal(back.coeffs, s.coeffs)
    small, tail2 = truncate(s, 2)
    assert small.N == 2
    assert tail2 == float(np.max(np.abs(
        np.concatenate([s.coeffs[:3], s.coeffs[-3:]]))))


def grid_values_by_index(phi, G):
    # the index-array fold: slot k mod G for every mode, np.add.at for the
    # modes past the first G
    c = phi.coeffs
    slot = np.arange(-phi.N, phi.N + 1) % G
    X = np.zeros(G, dtype=np.complex128)
    X[slot[:G]] = c[:G]
    np.add.at(X, slot[G:], c[G:])
    return np.fft.ifft(X) * G


@pytest.mark.parametrize("N,G", [(7, 5), (7, 3), (7, 16), (7, 15), (0, 4),
                                 (160, 648), (160, 321), (160, 100)])
@pytest.mark.parametrize("zeros", ["none", "some negative", "all negative"])
def test_grid_values_match_the_index_fold_bit_for_bit(N, G, zeros):
    # compared as raw bits, so the sign of every zero counts too
    rng = np.random.default_rng(N + G)
    c = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    if zeros == "some negative":
        c[::2] = complex(-0.0, 0.0)
        c[1::3] = complex(0.0, -0.0)
    elif zeros == "all negative":
        c[:] = complex(-0.0, -0.0)
    phi = FourierSeries(c)
    assert np.array_equal(grid_values(phi, G).view(np.int64),
                          grid_values_by_index(phi, G).view(np.int64))


def test_grid_values_match_evaluate():
    rng = np.random.default_rng(13)
    s = random_series(rng, 6)
    # 32 resolves all 13 modes; on 7 and 1 points modes fold onto each other
    for G in (32, 7, 1):
        vals = grid_values(s, G)
        theta = np.arange(G) / G
        assert np.max(np.abs(vals - evaluate(s, theta))) < 1e-12


def test_compose_zero_displacement_is_identity():
    # f's bytes come back, -0.0 parts included, and no grid is sampled
    f = FourierSeries(np.array([complex(0.5, -0.0), complex(-0.0, 0.0),
                                complex(0.5, -0.0)]))
    for u in (FourierSeries.zero(0), FourierSeries.zero(3)):
        out, rep = compose_id_plus(f, u)
        assert out.coeffs.tobytes() == f.coeffs.tobytes()
        assert rep.aliasing_tail == 0.0 and rep.grid_size == 0


def test_compose_constant_shift_phase_law():
    # f(theta + c) has coefficients c_k exp(2 pi i k c), exactly
    rng = np.random.default_rng(14)
    f = random_series(rng, 5)
    c = 0.21 - 0.04j
    out, rep = compose_id_plus(f, FourierSeries.constant(c))
    ks = np.arange(-f.N, f.N + 1)
    assert np.array_equal(out.coeffs, f.coeffs * np.exp(2j * np.pi * ks * c))
    assert rep.aliasing_tail == 0.0


def test_compose_general_matches_pointwise():
    # the composed series against a 1024-point FFT of f(theta + u(theta))
    rng = np.random.default_rng(15)
    f = random_series(rng, 6, decay=1.0)
    u = random_series(rng, 4, amp=0.005, decay=1.0)
    comp, rep = compose_id_plus(f, u)
    K = f.N + u.N
    assert comp.N == K and rep.grid_size >= 4 * (K + 1)
    G = 1024
    theta = np.arange(G) / G
    ref = np.fft.fft(evaluate(f, theta + evaluate(u, theta))) / G
    kept = ref[np.arange(-K, K + 1) % G]
    assert np.max(np.abs(comp.coeffs - kept)) < 1e-14
    # the reported tail is the largest coefficient the truncation dropped
    dropped = float(np.max(np.abs(ref[K + 1:G - K])))
    assert abs(rep.aliasing_tail - dropped) < 1e-14


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("na,nb", [(3, 3), (1, 6), (7, 2), (0, 4)])
def test_sum_and_difference_match_the_zero_padded_reference(na, nb, sign):
    # the reference pads both operands with np.pad, as the aligned sum was
    # once formed; -0.0 parts must come through bit for bit (at mode 0 both
    # carry one, and -0.0 + -0.0 stays -0.0 only if neither became +0.0)
    rng = np.random.default_rng(100 * na + nb)
    ca = random_series(rng, na).coeffs.copy()
    cb = random_series(rng, nb).coeffs.copy()
    ca[0] = cb[-1] = complex(-0.0, 0.25)
    ca[na] = cb[nb] = complex(-0.0, -0.0)
    a, b = FourierSeries(ca), FourierSeries(cb)
    N = max(na, nb)
    want = (np.pad(ca, (N - na, N - na))
            + sign * np.pad(cb, (N - nb, N - nb)))
    got = a + b if sign > 0 else a - b
    assert got.N == N
    assert got.coeffs.tobytes() == want.tobytes()


def test_computed_series_are_read_only():
    rng = np.random.default_rng(101)
    a = random_series(rng, 4)
    u = random_series(rng, 3, amp=0.01)
    results = [
        product(a, a),
        apply(SHIFT_PLUS, a, from_omega(0.3 + 0.1j)),
        compose_id_plus(a, u)[0],
        compose_id_plus(a, FourierSeries.constant(0.1))[0],
        truncate(a, 2)[0],
        invert_pointwise(FourierSeries.constant(2.0) + 0.1 * a),
        a + u, a - u, -a, derivative(a), clamp_small(a),
    ]
    for s in results:
        assert not s.coeffs.flags.writeable
        with pytest.raises(ValueError):
            s.coeffs[0] = 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_scalar_factor_must_be_finite(bad):
    with pytest.raises(ValueError, match="scalar factor must be finite"):
        FourierSeries.cos() * bad
    with pytest.raises(ValueError, match="scalar factor must be finite"):
        bad * FourierSeries.cos()


@pytest.mark.parametrize("theta,shown", [
    (math.nan, "(nan+0j)"),
    (math.inf, "(inf+0j)"),
    (np.array([0.1, math.nan]), "(nan+0j)"),
    (np.array([0.1, complex(0.2, -math.inf), math.nan]), "(0.2-infj)"),
    (complex(0.3, math.inf), "(0.3+infj)"),
])
def test_evaluate_refuses_a_non_finite_angle_by_name(theta, shown):
    # refused before the exponent guard could read inf as an overflow, and
    # before numpy could warn
    message = f"^theta must be finite, got {re.escape(shown)}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            evaluate(FourierSeries.cos(), theta)
        with pytest.raises(ValueError, match=message):
            FourierSeries.cos()(theta)


@pytest.mark.parametrize("call,message", [
    (lambda: truncate(FourierSeries.cos(), -1), "N must be an int >= 0, got -1"),
    (lambda: truncate(FourierSeries.cos(), True),
     "N must be an int >= 0, got True"),
    (lambda: grid_values(FourierSeries.cos(), 0), "G must be an int >= 1, got 0"),
    (lambda: grid_values(FourierSeries.cos(), -2),
     "G must be an int >= 1, got -2"),
    (lambda: grid_values(FourierSeries.cos(), 2.0),
     "G must be an int >= 1, got 2.0"),
    (lambda: FourierSeries.zero(True), "N must be an int >= 0, got True"),
    (lambda: FourierSeries.zero(-1), "N must be an int >= 0, got -1"),
    (lambda: FourierSeries.basis(True), "k must be an int, got True"),
    (lambda: FourierSeries.basis(2.0), "k must be an int, got 2.0"),
], ids=["truncate-neg", "truncate-bool", "grid-0", "grid-neg", "grid-float",
        "zero-bool", "zero-neg", "basis-bool", "basis-float"])
def test_a_series_count_argument_passes_the_count_rule(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def jet_orders(f, us, dtype):
    """[f(theta + u)]_0..[f(theta + u)]_len(us) for u = sum_s t^s us[s-1]."""
    jet = composition_jet(np.asarray(f.coeffs, dtype=dtype))
    out = [next(jet)]
    out += [jet.send(np.asarray(u, dtype=dtype)) for u in us]
    return out


def centered(a, N):
    pad = N - (a.size - 1) // 2
    return np.pad(np.asarray(a, dtype=np.clongdouble), (pad, pad))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_composition_jet_constant_shift(dtype):
    # u = t c: [f(theta + t c)]_n = sum_k f_k (2 pi i k c)^n / n! e_k exactly
    rng = np.random.default_rng(16)
    f = random_series(rng, 4)
    c = 0.13 - 0.05j
    n_max = 12
    orders = jet_orders(f, [[c]] + [[0.0]] * (n_max - 1), dtype)
    ks = np.arange(-f.N, f.N + 1)
    for n, got in enumerate(orders):
        assert got.dtype == dtype
        want = f.coeffs * (2j * np.pi * ks * c) ** n / math.factorial(n)
        err = np.max(np.abs(centered(got, f.N) - want))
        assert err <= 2e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
def test_composition_jet_sums_to_evaluated_composition(dtype):
    # sum_n t^n [f(theta + t u1)]_n against f evaluated at theta + t u1(theta)
    rng = np.random.default_rng(17)
    f = random_series(rng, 3, decay=0.8)
    u1 = random_series(rng, 2, decay=0.8)
    t = 0.02
    n_max = 24
    orders = jet_orders(f, [u1.coeffs] + [[0.0]] * (n_max - 1), dtype)
    N = (orders[-1].size - 1) // 2
    total = sum(t ** n * centered(g, N) for n, g in enumerate(orders))
    theta = np.arange(256) / 256.0
    jet = evaluate(FourierSeries(total.astype(np.complex128)), theta)
    ref = evaluate(f, theta + t * evaluate(u1, theta))
    assert np.max(np.abs(jet - ref)) < 1e-14 * np.max(np.abs(ref))


def on_modes(c, modes):
    """Series with coefficient c[i] at mode modes[i], zero elsewhere."""
    N = int(np.max(np.abs(modes)))
    out = np.zeros(2 * N + 1, dtype=np.complex128)
    out[np.asarray(modes) + N] = np.asarray(c, dtype=np.complex128)
    return FourierSeries(out)


# (step, center, modes of f, of u_1 and of u_2): a 16-mode forcing on the
# full lattice, and forcings on r + d Z with u_s on s r + d Z, centred on
# s * center: cos 2 pi theta + cos 6 pi theta (d = 2) and a one-sided d = 3
# forcing.  Coefficients are drawn, except cos + cos 3 theta's own
JET_CASES = {
    "16 modes": (1, 0, np.arange(-16, 17), np.arange(-3, 4), np.arange(-2, 3)),
    "cos + cos 3 theta": (2, 0, [-3, -1, 1, 3], [-1, 1], [-2, 0, 2]),
    "one-sided d = 3": (3, 2.5, [1, 4], [1, 4], [2, 5, 8]),
}


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("case", sorted(JET_CASES))
def test_composition_jet_on_a_lattice_sums_to_evaluated_composition(case, dtype):
    # sum_n t^n F_n, spread from the lattice onto the modes, against
    # f evaluated at theta + t u_1(theta) + t^2 u_2(theta)
    step, center, f_modes, u1_modes, u2_modes = JET_CASES[case]
    rng = np.random.default_rng(len(f_modes))

    def draw(modes, decay):
        ks = np.abs(np.asarray(modes))
        return np.exp(-decay * ks) * (rng.standard_normal(ks.size)
                                      + 1j * rng.standard_normal(ks.size))

    f = np.full(4, 0.5) if case == "cos + cos 3 theta" else draw(f_modes, 0.3)
    u1, u2 = draw(u1_modes, 0.8), draw(u2_modes, 0.8)
    t = 0.002 if case == "16 modes" else 0.02
    jet = composition_jet(np.asarray(f, dtype=dtype), step, center)
    orders = [next(jet)]
    for s in range(1, 25):
        u = u1 if s == 1 else u2 if s == 2 else np.zeros((u1, u2)[s % 2 == 0].size)
        orders.append(jet.send(np.asarray(u, dtype=dtype)))
    theta = np.arange(256) / 256.0
    got = np.zeros(theta.size, dtype=np.complex128)
    for n, F in enumerate(orders):
        assert F.dtype == dtype
        ks = (n + 1) * center + step * (np.arange(F.size) - (F.size - 1) / 2)
        assert np.all(ks == np.round(ks))      # F_n sits on integer modes
        got += t ** n * evaluate(on_modes(F.astype(np.complex128), ks.astype(int)),
                                 theta)
    z = (theta + t * evaluate(on_modes(u1, u1_modes), theta)
         + t * t * evaluate(on_modes(u2, u2_modes), theta))
    ref = evaluate(on_modes(f, f_modes), z)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def test_composition_jet_keeps_the_lattice_zeros_exact(monkeypatch):
    # cos on the full lattice: every F_n is zero on the modes of parity n,
    # on the stacked path (the rule's choice for cos) across four blocks of
    # rows, then on the pairs path
    assert fourier._takes_stacked_path(FourierSeries.cos().coeffs)
    monkeypatch.setattr(fourier, "_JET_ROWS", 5)
    for stacked in (True, False):
        monkeypatch.setattr(fourier, "_takes_stacked_path", lambda f: stacked)
        jet = composition_jet(FourierSeries.cos().coeffs)
        F = next(jet)
        for n in range(1, 20):
            u = np.zeros(2 * n + 1, dtype=np.complex128)
            u[::2] = 0.3 / n               # u_n on modes -n, -n + 2, ..., n
            F = jet.send(u)
            N = (F.size - 1) // 2
            off = (np.arange(-N, N + 1) - (n + 1)) % 2 == 1
            assert np.any(F[~off]) and not np.any(F[off])


def test_composition_jet_refuses_a_u_off_its_window():
    # u_1 of cos lives on modes -1..1; five entries would reach modes +-2,
    # which no order-1 window of cos holds
    jet = composition_jet(FourierSeries.cos().coeffs)
    next(jet)
    with pytest.raises(ValueError, match="off the window"):
        jet.send(np.zeros(5, dtype=np.complex128))


def jet_on_both_paths(f, step, lam, orders, rows):
    """F_0..F_orders on the pairs path and on the stacked path, with blocks
    of *rows* orders, for u_n = lam F_{n-1} mode by mode (the way
    ``obstruction_order`` drives the jet)."""
    runs = []
    saved = fourier._takes_stacked_path, fourier._JET_ROWS
    try:
        for stacked in (False, True):
            fourier._takes_stacked_path = lambda f: stacked
            fourier._JET_ROWS = rows
            jet = composition_jet(f, step, step * (f.size - 1) / 2 + 1)
            F = [next(jet)]
            for _ in range(orders):
                F.append(jet.send(F[-1] * lam[:F[-1].size]))
            runs.append(F)
    finally:
        fourier._takes_stacked_path, fourier._JET_ROWS = saved
    return runs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(size=st.integers(1, 9), step=st.integers(1, 3),
       rows=st.sampled_from([3, 5, 32]), orders=st.integers(1, 40),
       sublattice=st.booleans(),
       dtype=st.sampled_from([np.complex128, np.clongdouble]),
       seed=st.integers(0, 2**32 - 1))
@example(size=3, step=1, rows=32, orders=40, sublattice=True,
         dtype=np.complex128, seed=0)
@example(size=2, step=2, rows=32, orders=70, sublattice=False,
         dtype=np.clongdouble, seed=1)
def test_composition_jet_paths_agree(size, step, rows, orders, sublattice,
                                     dtype, seed):
    # the same f and u on both paths: every order agrees to 500 epsilons of
    # its largest coefficient (each path alone stays within about 120 of a
    # long-double run on these drives) and has its zeros at the same entries
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if sublattice:
        c[1:-1:2] = 0.0                   # f on every other mode of its lattice
    lam = -rng.uniform(0.05, 0.3) * rng.uniform(0.25, 1.0, 8 * orders + 1)
    pairs, stacked = jet_on_both_paths(c.astype(dtype), step, lam, orders, rows)
    tol = 500 * np.finfo(dtype).eps
    for x, y in zip(pairs, stacked):
        assert x.dtype == y.dtype == dtype and x.shape == y.shape
        assert np.array_equal(x == 0, y == 0)
        assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(x))


# (size, step, rows, orders, sublattice): spans 1, 2, 3, 4 and 6, blocks of
# 5 rows past several block edges, and two 70-order runs
REAL_JET_CASES = [(2, 1, 32, 40, False), (3, 2, 5, 40, True),
                  (4, 1, 32, 40, False), (5, 3, 5, 40, True),
                  (7, 1, 32, 40, True), (2, 2, 32, 70, False),
                  (7, 1, 5, 70, False)]


@pytest.mark.parametrize("size,step,rows,orders,sublattice", REAL_JET_CASES)
def test_real_jet_is_the_complex_jet_turned(size, step, rows, orders, sublattice):
    # the same real f and drive in float64 and in complex128, on both paths:
    # order n of the complex run is i^n times order n of the real run, to
    # 500 epsilons of its largest coefficient, with its zeros at the same
    # entries
    rng = np.random.default_rng(size + orders)
    c = rng.standard_normal(size)
    if sublattice:
        c[1:-1:2] = 0.0
    lam = -rng.uniform(0.05, 0.3) * rng.uniform(0.25, 1.0, 8 * orders + 1)
    real = jet_on_both_paths(c, step, lam, orders, rows)
    cplx = jet_on_both_paths(c.astype(np.complex128), step, lam, orders, rows)
    turns = np.array([1, 1j, -1, -1j])
    tol = 500 * np.finfo(np.float64).eps
    for xs, ys in zip(real, cplx):
        for n, (x, y) in enumerate(zip(xs, ys)):
            assert x.dtype == np.float64 and x.shape == y.shape
            assert np.array_equal(x == 0, y == 0)
            assert np.max(np.abs(turns[n % 4] * x - y)) <= tol * np.max(np.abs(y))


def test_stacked_path_rule_by_dtype():
    # float64 up to span 4, complex128 up to span 2, long double never
    for size, real, cplx in ((2, True, True), (3, True, True), (4, True, False),
                             (5, True, False), (6, False, False)):
        assert fourier._takes_stacked_path(np.zeros(size)) == real
        assert fourier._takes_stacked_path(np.zeros(size, np.complex128)) == cplx
        assert not fourier._takes_stacked_path(np.zeros(size, np.clongdouble))


def test_real_jet_refuses_a_complex_u():
    # numpy would cast it to float64, dropping Im u with only a ComplexWarning
    jet = composition_jet(np.array([0.5, 0.0, 0.5]))
    next(jet)
    with pytest.raises(ValueError, match="complex"):
        jet.send(np.array([0.1, 0.0, 0.1j]))


def test_invert_pointwise_inverse():
    f = FourierSeries([0.5, 2.0, 0.5])  # 2 + cos, strictly positive
    inv = invert_pointwise(f)
    one = product(f, inv)
    assert abs(mean(one) - 1.0) < 1e-13
    theta = np.arange(48) / 48.0
    assert np.max(np.abs(evaluate(one, theta) - 1.0)) < 1e-12


def test_invert_pointwise_keeps_the_cutoff_its_tail_rule_gives():
    # A = 1/(2 + cos) carries over 20 modes (the last ones round-off), but
    # its inverse is 2 + cos: the tail rule keeps K = 1, below A.N
    A = invert_pointwise(FourierSeries([0.5, 2.0, 0.5]))
    assert A.N > 20
    inv = invert_pointwise(A)
    assert inv.N == 1
    assert np.max(np.abs(inv.coeffs - [0.5, 2.0, 0.5])) < 1e-13


def test_invert_pointwise_refines_when_the_first_grid_misses_the_tail(
        monkeypatch):
    # 1/(1 - 0.9973 cos) decays like 0.93^|k|: its 1e-13 tail lies past the
    # first grid's 255 modes and inside the refined grid's 1023
    from kamforge import fourier
    grids = []
    real = fourier.grid_values
    monkeypatch.setattr(fourier, "grid_values",
                        lambda phi, G: grids.append(G) or real(phi, G))
    A = FourierSeries([-0.9973 / 2, 1.0, -0.9973 / 2])
    inv = invert_pointwise(A)
    assert grids == [512, 2048]
    assert 255 < inv.N < 1023
    theta = np.arange(64) / 64.0
    assert np.max(np.abs(evaluate(product(A, inv), theta) - 1.0)) < 1e-11


def test_invert_pointwise_near_singular():
    f = FourierSeries([0.5, 1.0, 0.5])  # 1 + cos vanishes at theta = 1/2
    with pytest.raises(NearSingularError):
        invert_pointwise(f)


def test_invert_pointwise_refuses_a_tail_neither_grid_resolves():
    # 1/(1 - 0.99999 cos) decays like 0.9955^|k|: the refined grid's 1023
    # modes end at 2% of the largest, where the kept inverse would miss 1/A
    # by up to 9.2, and that reach is below the hard cap, whose refusal
    # therefore never sees it
    A = FourierSeries.constant(1.0) - 0.99999 * FourierSeries.cos()
    with pytest.raises(NearSingularError, match="grid of 2048 points") as info:
        invert_pointwise(A)
    d = info.value.diagnostics
    assert d["grid_size"] == 2048
    assert 1e-2 < d["tail"] < 3e-2
    assert d["grid_min"] > 0.0


def test_invert_pointwise_beyond_hard_cap_is_typed():
    # an inverse that needs more than HARD_CAP modes is a near-singular
    # operand, not a bare ValueError from the series constructor
    A = FourierSeries(np.pad(
        (FourierSeries.constant(1.0) - 0.99999 * FourierSeries.cos()).coeffs,
        (1099, 1099)))
    with pytest.raises(NearSingularError) as info:
        invert_pointwise(A)
    assert info.value.diagnostics["cutoff"] > HARD_CAP
    assert info.value.diagnostics["hard_cap"] == HARD_CAP
    assert info.value.diagnostics["grid_min"] > 0.0


@pytest.mark.parametrize("pad", [1099, 4000])
def test_invert_pointwise_meets_the_hard_cap_on_either_grid(pad, monkeypatch):
    # the inverse of 1 - 0.9999 cos needs over 6000 modes (its 1e-13 tail
    # meets the round-off of 1/A): past the first grid's 2204 at pad 1099,
    # seen after the refinement, and within the first grid's 8018 at 4000
    from kamforge import fourier
    grids = []
    real = fourier.grid_values
    monkeypatch.setattr(fourier, "grid_values",
                        lambda phi, G: grids.append(G) or real(phi, G))
    A = FourierSeries(np.pad(
        (FourierSeries.constant(1.0) - 0.9999 * FourierSeries.cos()).coeffs,
        (pad, pad)))
    with pytest.raises(NearSingularError, match="above the hard cap") as info:
        invert_pointwise(A)
    assert HARD_CAP < info.value.diagnostics["cutoff"] < (grids[-1] - 1) // 2
    assert len(grids) == (2 if pad == 1099 else 1)


def test_clamp_small_drops_noise_tail():
    c = np.zeros(41, dtype=np.complex128)
    c[20 + 1] = 1.0
    c[20 + 15] = 1e-19       # far-mode junk below 1e-16 relative
    c[20 - 18] = -3e-20
    s = clamp_small(FourierSeries(c))
    assert s.N == 1
    assert s.coeff(1) == 1.0
    assert s.coeff(15) == 0.0


def test_json_roundtrip_exact():
    rng = np.random.default_rng(16)
    s = random_series(rng, 8)
    t = FourierSeries.from_json_dict(s.to_json_dict())
    assert np.array_equal(s.coeffs, t.coeffs)


# every site that forms exp(2 pi i k z) off the real circle, as a function of
# the height y of z on a 21-mode series: each exponent is 2 pi 10 y
_ONES = FourierSeries(np.ones(21))
GUARD_SITES = {
    "evaluation": lambda y: evaluate(_ONES, 0.3 + 1j * y),
    "constant-shift": lambda y: compose_id_plus(
        _ONES, FourierSeries.constant(0.3 + 1j * y))[0].coeffs,
    "shift": lambda y: multiplier_table(from_omega(complex(0.3, y))).table(
        10, SHIFT_PLUS),
}


# evaluation sums the modes k > 0 in w = exp(2 pi i z) and k < 0 in 1/w: a
# height of either sign makes one of the two grow, and both stay finite
GUARD_SIGNS = {"evaluation": (1.0, -1.0)}


@pytest.mark.parametrize("site", sorted(GUARD_SITES))
def test_every_exponent_guard_shares_the_cap(site):
    run = GUARD_SITES[site]
    for sign in GUARD_SIGNS.get(site, (1.0,)):
        below = run(sign * (EXP_CAP - 0.5) / (TWO_PI * 10))
        assert np.all(np.isfinite(below))
        with pytest.raises(OverflowRiskError, match="exceeds cap") as info:
            run(sign * (EXP_CAP + 0.5) / (TWO_PI * 10))
        d = info.value.diagnostics
        assert d["exponent"] > d["cap"] == EXP_CAP
        assert str(info.value).startswith(f"{site} exponent ")
