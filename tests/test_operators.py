"""Multiplier operators: exact identities and closed-form divisor values."""

import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kamforge import operators
from kamforge.continuation import crosscheck
from kamforge.errors import KamforgeError, OverflowRiskError
from kamforge.fourier import (
    EXP_CAP,
    FourierSeries,
    mean,
    mode_phases,
    sup_norm,
)
from kamforge.frequency import from_omega, from_q, lambda_table
from kamforge.kam import SolverConfig, solve_curve
from kamforge.operators import (
    DELTA,
    E_Q,
    GAMMA,
    GAMMA_MINUS,
    NABLA,
    NABLA_MINUS,
    SHIFT_MINUS,
    SHIFT_PLUS,
    MultiplierKind,
    apply,
    e_n,
    max_divisor_magnitude,
    multiplier_table,
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


@pytest.mark.parametrize("im", [math.inf, -math.inf])
def test_shift_at_the_poles_is_undefined(im):
    # q^{+-1} do not exist there, so no frequency to shift by is made
    with pytest.raises(ValueError, match=r"^omega must be finite with "):
        apply(SHIFT_PLUS, FourierSeries.cos(), from_omega(complex(0.3, im)))


# ---------------------------------------------------------------------------
# the per-frequency tables, cached by multiplier_table


def fresh_table(freq, N, kind):
    """One kind built from scratch at cutoff N, with the refusals at N."""
    if kind in (GAMMA, GAMMA_MINUS, E_Q):
        gamma = lambda_table(freq, N)
        minus = -gamma[::-1]
        return {GAMMA: gamma, GAMMA_MINUS: minus, E_Q: gamma * minus}[kind]
    plus = mode_phases(freq.omega, N, "shift", cutoff=N)
    minus = plus[::-1]
    return {SHIFT_PLUS: plus, SHIFT_MINUS: minus, NABLA: plus - 1.0,
            NABLA_MINUS: 1.0 - minus, DELTA: plus - 2.0 + minus}[kind]


def outcome(build, *args):
    """The table's bytes, or the type and message of what it raised."""
    try:
        t = build(*args)
    except KamforgeError as exc:
        return type(exc), str(exc), exc.diagnostics
    return t.dtype, t.shape, t.tobytes()


def clear_kamforge_caches():
    """Clear every functools cache in kamforge, module by module."""
    for name, mod in list(sys.modules.items()):
        if name == "kamforge" or name.startswith("kamforge."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@st.composite
def table_cases(draw):
    """A frequency and the cutoffs to request at it, in some order."""
    where = draw(st.sampled_from(["plain", "guard", "rational"]))
    re = draw(st.floats(0.0, 1.0, exclude_max=True))
    Ns = draw(st.lists(st.integers(0, 1300), min_size=1, max_size=6))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if where == "plain":
        im = sign * draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    elif where == "guard":  # Im omega puts the shift guard at cutoff Ng
        Ng = draw(st.integers(2, 1200))   # Ng = 1 puts 1 + 1e-12 past the cap
        nudge = draw(st.sampled_from([1 - 1e-12, 1.0, 1 + 1e-12]))
        im = sign * nudge * EXP_CAP / (2.0 * math.pi * Ng)
        Ns += [Ng - 1, Ng, Ng + 1]
    else:
        m = draw(st.integers(1, 12))
        re, im = draw(st.integers(0, m - 1)) / m, 0.0
        Ns += [m - 1, m]
    order = draw(st.sampled_from(["up", "down", "shuffled"]))
    Ns = {"up": sorted(Ns), "down": sorted(Ns, reverse=True),
          "shuffled": draw(st.permutations(Ns))}[order]
    kinds = draw(st.permutations(list(MultiplierKind)))
    return from_omega(complex(re, im)), Ns, kinds


@settings(derandomize=True, max_examples=80, deadline=None)
@given(table_cases())
@example((from_omega(0.5), [600, 1, 2, 1300], list(MultiplierKind)))
@example((from_omega(0.3 + 0.1j), [0, 2000, 600, 4096], list(MultiplierKind)))
def test_tables_match_a_fresh_build_byte_for_byte(case):
    freq, Ns, kinds = case
    clear_kamforge_caches()
    for N in Ns:
        for kind in kinds:
            assert outcome(lambda: multiplier_table(freq).table(N, kind)) \
                == outcome(fresh_table, freq, N, kind), (N, kind)


def test_cleared_caches_rebuild_the_tables(monkeypatch):
    freq, f = from_omega(GOLDEN + 0.01j), FourierSeries.cos()
    solve_curve(f, freq, 0.05)
    clear_kamforge_caches()
    assert multiplier_table.cache_info().currsize == 0
    builds = []
    real_pass = operators.lambda_pass

    def counted(freq, N):
        builds.append(N)
        return real_pass(freq, N)

    monkeypatch.setattr(operators, "lambda_pass", counted)
    solve_curve(f, freq, 0.05)
    floor = operators._TABLE_FLOOR
    assert builds == [floor]  # once, at the first request
    # past the width, the set grows to twice it, not to each new cutoff
    for N in range(floor + 1, 2 * floor + 1, 97):
        multiplier_table(freq).table(N, GAMMA)
    assert builds == [floor, 2 * floor]


def test_a_sweep_keeps_at_most_two_frequencies_tables(monkeypatch):
    clear_kamforge_caches()
    built = []  # (omega, weak reference to a q^k or lambda_k table)

    def tracked(build, omega_of):
        def run(*args, **kwargs):
            out = build(*args, **kwargs)
            table = out[0] if isinstance(out, tuple) else out
            built.append((omega_of(args[0]), weakref.ref(table)))
            return out
        return run

    monkeypatch.setattr(operators, "mode_phases",
                        tracked(mode_phases, lambda z: z))
    monkeypatch.setattr(operators, "lambda_pass",
                        tracked(operators.lambda_pass, lambda fr: fr.omega))
    f, config = FourierSeries.cos(), SolverConfig(cutoff=32)
    for j in range(100):
        omega = complex(0.3 + 0.002 * (j % 10), 0.01 + 0.001 * (j // 10))
        solve_curve(f, from_omega(omega), 0.01, config)
    gc.collect()
    omegas = {om for om, _ in built}
    alive = {om for om, ref in built if ref() is not None}
    assert len(omegas) == 100
    assert len(alive) <= 2


# ---------------------------------------------------------------------------
# apply multiplies by views of the per-frequency tables


@st.composite
def apply_cases(draw):
    """A frequency off the circle on either side of it, and cutoffs to apply at.

    Im omega up to 0.2 keeps q^k finite past the 512-mode floor, so those
    cutoffs rebuild the tables; up to 10 the shift guard refuses early.
    """
    re = draw(st.floats(0.0, 1.0, exclude_max=True))
    im = draw(st.one_of(st.floats(0.0, 0.2, exclude_min=True),
                        st.floats(0.0, 10.0, exclude_min=True)))
    im *= draw(st.sampled_from([1.0, -1.0]))
    Ns = draw(st.lists(st.integers(0, 1100), min_size=1, max_size=4))
    return from_omega(complex(re, im)), Ns


def applied(kind, phi, freq):
    """``apply``'s coefficients, or the type and message of what it raised."""
    try:
        return apply(kind, phi, freq).coeffs.tobytes()
    except KamforgeError as exc:
        return type(exc), str(exc)


def multiplied(kind, phi, freq):
    """phi times ``multiplier_table``'s vector, refused as ``apply`` refuses."""
    try:
        table = multiplier_table(freq).table(phi.N, kind)
    except KamforgeError as exc:
        return type(exc), str(exc)
    with np.errstate(over="ignore", invalid="ignore"):
        out = phi.coeffs * table
    if not np.isfinite(out).all():
        return OverflowRiskError, f"{kind.value} produced non-finite coefficients"
    return out.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(apply_cases())
@example((from_omega(0.3 + 0.01j), [10, 600, 1100]))
@example((from_omega(0.7 - 10.0j), [0, 11, 12]))
def test_apply_reads_the_frequency_tables(case):
    freq, Ns = case
    clear_kamforge_caches()
    rng = np.random.default_rng(len(Ns))
    for N in Ns:
        phi = random_series(rng, N, decay=0.01)
        for kind in MultiplierKind:
            assert applied(kind, phi, freq) == multiplied(kind, phi, freq), (
                N, kind)
        # the factorizations, mode by mode, to the round-off of each product
        tables = multiplier_table(freq)
        for outer, inner, whole in ((GAMMA, GAMMA_MINUS, E_Q),
                                    (NABLA, NABLA_MINUS, DELTA)):
            try:
                a, b = tables.table(N, outer), tables.table(N, inner)
                lhs = apply(whole, phi, freq).coeffs
                rhs = apply(outer, apply(inner, phi, freq), freq).coeffs
            except KamforgeError:
                continue  # refused alike by apply and multiplier_table above
            scale = np.abs(phi.coeffs) * (1 + np.abs(a)) * (1 + np.abs(b))
            assert np.all(np.abs(lhs - rhs) <= 1e-15 * scale), (N, whole)
    # every table the frequency holds is read-only, and so is every view
    for table in multiplier_table(freq).tables.values():
        for view in (table, table[1:-1]):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 1.0


def test_a_solve_fills_the_one_table_cache():
    # perfbench's rounds read these statistics: one frequency is one miss,
    # and every later apply at it is a hit
    clear_kamforge_caches()
    curve = solve_curve(FourierSeries.cos(), from_omega(GOLDEN + 0.01j), 0.05)
    assert curve.report.converged
    info = multiplier_table.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    assert info.hits > 0
    crosscheck(FourierSeries.cos(), from_q(0.3), 0.05)
    assert multiplier_table.cache_info().misses == 2
