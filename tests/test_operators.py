"""Multiplier operators: exact identities and closed-form divisor values."""

import math

import numpy as np
import pytest

from kamforge.errors import OverflowRiskError
from kamforge.fourier import EXP_CAP, FourierSeries, mean, sup_norm
from kamforge.frequency import from_omega, from_q
from kamforge.operators import (
    DELTA,
    E_Q,
    GAMMA,
    GAMMA_MINUS,
    NABLA,
    NABLA_MINUS,
    SHIFT_MINUS,
    SHIFT_PLUS,
    apply,
    e_n,
    max_divisor_magnitude,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def random_series(rng, N, decay=0.6):
    ks = np.arange(-N, N + 1)
    mag = np.exp(-decay * np.abs(ks))
    return FourierSeries(mag * (rng.standard_normal(2 * N + 1)
                                + 1j * rng.standard_normal(2 * N + 1)))


def freqs_for_identities(rng, n):
    out = [from_omega(GOLDEN), from_omega(0.5 + 0.5j), from_q(0.3)]
    while len(out) < n:
        out.append(from_omega(rng.random() + 1j * rng.uniform(-0.05, 0.05)))
    return out[:n]


def test_shift_is_phase_multiplication():
    # (phi+)(theta) = phi(theta + omega): coefficient k picks up q^k
    om = 0.3
    freq = from_omega(om)
    phi = FourierSeries.basis(2, 1.0) + FourierSeries.basis(-1, 0.5)
    shifted = apply(SHIFT_PLUS, phi, freq)
    assert abs(shifted.coeff(2) - np.exp(2j * np.pi * 2 * om)) < 1e-15
    assert abs(shifted.coeff(-1) - 0.5 * np.exp(-2j * np.pi * om)) < 1e-15
    back = apply(SHIFT_MINUS, shifted, freq)
    assert sup_norm(back - phi) < 1e-15


def test_delta_closed_form_on_circle():
    # on the circle delta acts by 2 - 2cos(2 pi k omega) = -(-4 sin^2(pi k om))
    om = GOLDEN
    freq = from_omega(om)
    for k in (1, 2, 3, 7):
        out = apply(DELTA, FourierSeries.basis(k, 1.0), freq)
        expected = -4.0 * math.sin(math.pi * k * om) ** 2
        assert abs(out.coeff(k) - expected) < 1e-13


def test_gamma_inverts_nabla():
    rng = np.random.default_rng(31)
    for freq in freqs_for_identities(rng, 8):
        phi = random_series(rng, 12)
        out = apply(NABLA, apply(GAMMA, phi, freq), freq)
        expected = phi - FourierSeries.constant(mean(phi))
        assert sup_norm(out - expected) < 1e-13 * max(sup_norm(phi), 1.0)
        # Gamma output is zero-mean by convention
        assert mean(apply(GAMMA, phi, freq)) == 0.0


def test_gamma_shift_exchange():
    rng = np.random.default_rng(32)
    for freq in freqs_for_identities(rng, 6):
        phi = random_series(rng, 10)
        lhs = apply(SHIFT_PLUS, apply(GAMMA, phi, freq), freq)
        rhs = apply(GAMMA_MINUS, phi, freq)
        assert sup_norm(lhs - rhs) < 1e-13 * max(sup_norm(rhs), 1.0)


def test_delta_factorizations():
    rng = np.random.default_rng(33)
    for freq in freqs_for_identities(rng, 6):
        phi = random_series(rng, 10)
        d1 = apply(DELTA, phi, freq)
        d2 = apply(NABLA, apply(NABLA_MINUS, phi, freq), freq)
        assert sup_norm(d1 - d2) < 1e-13 * max(sup_norm(d1), 1.0)
        # E_q is the two-sided inverse of delta on zero-mean functions
        recon = apply(E_Q, d1, freq)
        expected = phi - FourierSeries.constant(mean(phi))
        assert sup_norm(recon - expected) < 1e-12 * max(sup_norm(phi), 1.0)
        ggm = apply(GAMMA, apply(GAMMA_MINUS, phi, freq), freq)
        eq = apply(E_Q, phi, freq)
        assert sup_norm(ggm - eq) < 1e-13 * max(sup_norm(eq), 1.0)


def test_e_n_divisor_structure():
    # e_n keeps exactly the modes m with m | n, weighted by n/m
    rng = np.random.default_rng(34)
    phi = random_series(rng, 12)
    out = e_n(phi, 6)
    for m in range(1, 7):
        if 6 % m == 0:
            d = 6 // m
            assert out.coeff(m) == d * phi.coeff(m)
            assert out.coeff(-m) == d * phi.coeff(-m)
        else:
            assert out.coeff(m) == 0.0
    assert out.coeff(0) == 0.0
    with pytest.raises(ValueError):
        e_n(phi, 0)


def test_e_n_is_taylor_expansion_of_E_q():
    # independent analytic oracle: the E_q multiplier at mode m>0 is
    # q^m/(1-q^m)^2 = sum_d d q^(d m), so E_q phi = sum_n q^n e_n(phi, n)
    rng = np.random.default_rng(35)
    phi = random_series(rng, 5)
    q = 0.17 + 0.1j
    freq = from_q(q)
    direct = apply(E_Q, phi, freq)
    partial = FourierSeries.zero(phi.N)
    for n in range(1, 41):
        partial = partial + (q ** n) * e_n(phi, n)
    assert sup_norm(partial - direct) < 1e-14


def test_max_divisor_magnitude():
    freq = from_omega(GOLDEN)
    mag, k = max_divisor_magnitude(freq, 12)
    # independent scan
    import cmath
    best, best_k = 0.0, 0
    for kk in range(-12, 13):
        if kk == 0:
            continue
        lam = abs(1.0 / (cmath.exp(2j * math.pi * GOLDEN) ** kk - 1.0))
        if lam > best:
            best, best_k = lam, kk
    assert mag == pytest.approx(best, rel=1e-10)
    assert abs(k) == abs(best_k)


def test_apply_is_linear():
    rng = np.random.default_rng(36)
    freq = from_omega(0.4 + 0.1j)
    a = random_series(rng, 7)
    b = random_series(rng, 7)
    out = apply(GAMMA, a + 2.0 * b, freq)
    expected = apply(GAMMA, a, freq) + 2.0 * apply(GAMMA, b, freq)
    assert sup_norm(out - expected) < 1e-13 * max(sup_norm(expected), 1.0)


@pytest.mark.parametrize("im", [200.0, -200.0, 1e300])
def test_shift_past_the_cap_names_the_exponent(im):
    # the chart coordinate underflows to 0 there, yet omega is no pole:
    # q^{+-1} overflow, and the error says so
    freq = from_omega(complex(0.3, im))
    assert freq.is_pole
    with pytest.raises(OverflowRiskError, match="shift exponent .* exceeds cap") as e:
        apply(SHIFT_PLUS, FourierSeries.cos(), freq)
    assert e.value.diagnostics["exponent"] == 2.0 * math.pi * abs(im)
    assert e.value.diagnostics["cap"] == EXP_CAP


@pytest.mark.parametrize("im", [math.inf, -math.inf])
def test_shift_at_the_poles_is_undefined(im):
    with pytest.raises(OverflowRiskError, match="chart poles"):
        apply(SHIFT_PLUS, FourierSeries.cos(), from_omega(complex(0.3, im)))
