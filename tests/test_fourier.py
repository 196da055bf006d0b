"""Truncated Fourier series: arithmetic, composition, inversion, clamping."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest

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
    strip_norm_bound,
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


def test_invert_pointwise_inverse():
    f = FourierSeries([0.5, 2.0, 0.5])  # 2 + cos, strictly positive
    inv = invert_pointwise(f)
    one = product(f, inv)
    assert abs(mean(one) - 1.0) < 1e-13
    theta = np.arange(48) / 48.0
    assert np.max(np.abs(evaluate(one, theta) - 1.0)) < 1e-12


def test_invert_pointwise_near_singular():
    f = FourierSeries([0.5, 1.0, 0.5])  # 1 + cos vanishes at theta = 1/2
    with pytest.raises(NearSingularError):
        invert_pointwise(f)


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


def test_clamp_small_drops_noise_tail():
    c = np.zeros(41, dtype=np.complex128)
    c[20 + 1] = 1.0
    c[20 + 15] = 1e-19       # far-mode junk below 1e-16 relative
    c[20 - 18] = -3e-20
    s = clamp_small(FourierSeries(c))
    assert s.N == 1
    assert s.coeff(1) == 1.0
    assert s.coeff(15) == 0.0


def test_strip_norm_bound_values():
    # basis(1): sum |c_k| e^(2 pi r |k|) = e^(2 pi r)
    b = FourierSeries.basis(1, 1.0)
    r = 0.25
    assert abs(strip_norm_bound(b, r) - np.exp(TWO_PI * r)) < 1e-12
    assert strip_norm_bound(b, 0.0) == 1.0
    with pytest.raises(ValueError):
        strip_norm_bound(b, -0.1)


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
    "strip": lambda y: strip_norm_bound(_ONES, y),
    "shift": lambda y: multiplier_table(from_omega(complex(0.3, y)), 10,
                                        SHIFT_PLUS),
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
