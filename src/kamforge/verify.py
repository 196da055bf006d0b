"""Named, runnable verification checks.

Two suites: structural invariants (fast spot checks of the exact identities
and artifact laws) and the acceptance criteria (the full benchmark, bound,
and cross-method battery).  Both the test suite and the ``verify`` CLI
subcommand drive the same registry, so "the tests pass" and "the shipped
binary verifies itself" mean the same thing.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .continuation import (
    conjugate_reflection_check,
    inverse_scattering,
    picard_solve,
    taylor0_eval,
    taylor0_recursion,
)
from .errors import BoundViolationError
from .fourier import (
    FourierSeries,
    compose_id_plus,
    grid_values,
    mean,
    product,
    sup_norm,
)
from .frequency import (
    DiophantineClass,
    check_exp_dist_bound,
    dioph_real_margin,
    dist_to_AMR,
    from_omega,
    from_q,
    lambda_k,
)
from .kam import (
    InvariantCurve,
    SolverConfig,
    dynamical_residual,
    linearized_solve,
    mean_identity_residual,
    solve_curve,
)
from .obstruction import RationalFreq, delta_star, e_star, obstruction_order, projector
from .operators import (
    DELTA,
    E_Q,
    GAMMA,
    GAMMA_MINUS,
    NABLA,
    NABLA_MINUS,
    SHIFT_PLUS,
    apply,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


_cache: dict = {}


def golden_benchmark_curve():
    """The standard-map benchmark solve, cached across checks."""
    if "golden" not in _cache:
        f = FourierSeries.cos()
        t0 = time.perf_counter()
        curve = solve_curve(f, from_omega(GOLDEN), 0.05,
                            SolverConfig(cutoff=256))
        dyn = dynamical_residual(curve, 1024)
        _cache["golden"] = (curve, dyn, time.perf_counter() - t0)
    return _cache["golden"]


def _random_series(rng, N, amp=1.0, decay=0.8, zero_mean=False):
    ks = np.arange(-N, N + 1)
    mag = amp * np.exp(-decay * np.abs(ks))
    c = mag * (rng.standard_normal(2 * N + 1)
               + 1j * rng.standard_normal(2 * N + 1))
    if zero_mean:
        c[N] = 0.0
    return FourierSeries(c)


def _random_freq(rng, i):
    # every fifth instance exercises the real Diophantine benchmark point;
    # the rest sample the complex band (uniformly non-resonant).  The band
    # height is kept under the operand decay: the identity defects amplify
    # far modes by e^(2 pi Im omega |k|), so the certifiable floor is set
    # by the ratio of band height to tail decay.
    if i % 5 == 4:
        return from_omega(GOLDEN)
    return from_omega(rng.random() + 1j * rng.uniform(0.01, 0.05))


# ---------------------------------------------------------------------------
# acceptance criteria


def check_golden_benchmark():
    curve, dyn, secs = golden_benchmark_curve()
    it = curve.report.iterations
    ok = it <= 8 and dyn < 1e-10 and secs < 5.0
    return ok, (f"iterations={it} (need <=8), dynamical residual={dyn:.3e} "
                f"(need <1e-10), time={secs:.2f}s (need <5s)")


def check_quadratic_slope():
    curve, _, _ = golden_benchmark_curve()
    s = curve.report.quadratic_fit_slope
    return 1.8 <= s <= 2.2, f"log-log residual slope={s:.3f} (need in [1.8, 2.2])"


def check_three_method_agreement():
    f = FourierSeries.cos()
    t0 = time.perf_counter()
    freq = from_q(0.3)
    u_p, _ = picard_solve(f, freq, 0.05)
    data = taylor0_recursion(f, 0.05, N_q=40)
    u_t = taylor0_eval(data, 0.3)
    curve = solve_curve(f, freq, 0.05)
    d_pt = sup_norm(u_p - u_t)
    d_pn = sup_norm(u_p - curve.u)
    freq2 = from_omega(0.5 + 0.5j)
    u_p2, _ = picard_solve(f, freq2, 0.05)
    curve2 = solve_curve(f, freq2, 0.05)
    d_np2 = sup_norm(u_p2 - curve2.u)
    secs = time.perf_counter() - t0
    ok = d_pt < 1e-8 and d_pn < 1e-10 and d_np2 < 1e-10 and secs < 10.0
    return ok, (f"q=0.3: |picard-taylor0|={d_pt:.2e} (<1e-8), "
                f"|picard-newton|={d_pn:.2e} (<1e-10); "
                f"omega=1/2+i/2: |newton-picard|={d_np2:.2e} (<1e-10); "
                f"time={secs:.2f}s (<10s)")


def check_identity_suites():
    n_instances = 20
    rng = np.random.default_rng(74210815)
    worst = {"factorization": 0.0, "zero_mean": 0.0,
             "eqF": 0.0, "multipliers": 0.0}
    for i in range(n_instances):
        freq = _random_freq(rng, i)
        phi = _random_series(rng, int(rng.integers(4, 16)))

        # nabla Gamma = id - mean
        lhs = apply(NABLA, apply(GAMMA, phi, freq), freq)
        rhs = phi - FourierSeries.constant(mean(phi))
        worst["multipliers"] = max(
            worst["multipliers"],
            sup_norm(lhs - rhs) / max(sup_norm(phi), 1e-300))
        # (Gamma phi)+ = Gamma- phi
        lhs = apply(SHIFT_PLUS, apply(GAMMA, phi, freq), freq)
        rhs = apply(GAMMA_MINUS, phi, freq)
        worst["multipliers"] = max(
            worst["multipliers"],
            sup_norm(lhs - rhs) / max(sup_norm(rhs), 1e-300))
        # delta = nabla nabla-
        lhs = apply(DELTA, phi, freq)
        rhs = apply(NABLA, apply(NABLA_MINUS, phi, freq), freq)
        worst["multipliers"] = max(
            worst["multipliers"],
            sup_norm(lhs - rhs) / max(sup_norm(lhs), 1e-300))
        # Gamma Gamma- = E_q
        lhs = apply(GAMMA, apply(GAMMA_MINUS, phi, freq), freq)
        rhs = apply(E_Q, phi, freq)
        worst["multipliers"] = max(
            worst["multipliers"],
            sup_norm(lhs - rhs) / max(sup_norm(rhs), 1e-300))

        # factorization: A delta(Aw) - (Aw) delta A = nabla-(A A+ nabla w)
        A = FourierSeries.constant(1.0) + _random_series(
            rng, 10, amp=0.05, decay=2.0)
        w = _random_series(rng, 10, amp=1.0, decay=2.0)
        h = product(A, w)
        lhs = product(A, apply(DELTA, h, freq)) \
            - product(h, apply(DELTA, A, freq))
        Ap = apply(SHIFT_PLUS, A, freq)
        rhs = apply(NABLA_MINUS,
                    product(product(A, Ap), apply(NABLA, w, freq)), freq)
        sc = max(sup_norm(lhs), sup_norm(rhs), 1e-300)
        worst["factorization"] = max(worst["factorization"],
                                     sup_norm(lhs - rhs) / sc)

        # <A E(u)> = 0 for zero-mean forcing, any u
        f0 = _random_series(rng, 6, amp=0.5, decay=0.6, zero_mean=True)
        u = _random_series(rng, 8, amp=0.02, decay=0.9)
        val = mean_identity_residual(u, f0, freq, 0.05)
        worst["zero_mean"] = max(
            worst["zero_mean"], val / max(0.05 * sup_norm(f0), 1e-300))

        # the linearized solve really solves its equation
        E = _random_series(rng, 10, amp=1.0, decay=2.0)
        w2 = linearized_solve(A, E, freq)
        AE = product(A, E)
        target = AE - FourierSeries.constant(mean(AE))
        Aw = product(A, w2)
        lhs = product(A, apply(DELTA, Aw, freq)) \
            - product(Aw, apply(DELTA, A, freq))
        worst["eqF"] = max(
            worst["eqF"],
            sup_norm(lhs - target) / max(sup_norm(target), 1e-300))

    ok = (worst["factorization"] < 1e-12 and worst["zero_mean"] < 1e-11
          and worst["eqF"] < 1e-11 and worst["multipliers"] < 1e-13)
    return ok, (f"{n_instances} instances; worst relative defects: "
                f"factorization={worst['factorization']:.2e} (<1e-12), "
                f"zero-mean={worst['zero_mean']:.2e} (<1e-11), "
                f"linearized-solve={worst['eqF']:.2e} (<1e-11), "
                f"multipliers={worst['multipliers']:.2e} (<1e-13)")


def check_divisor_bounds():
    n_samples = 10_000
    cls = DiophantineClass(6.0, 0.5, 2000)
    rng = np.random.default_rng(55101)

    accepted = []
    while len(accepted) < n_samples:
        xs = rng.random(4 * n_samples)
        ys = rng.uniform(-0.35, 0.35, 4 * n_samples)
        ys[: n_samples // 10] = 0.0  # force a real-axis contingent
        d = np.array([dist_to_AMR(x, cls) for x in xs.tolist()])
        good = d <= np.abs(ys)
        accepted.extend(zip(xs[good], ys[good]))
    accepted = accepted[:n_samples]

    lam_violations = 0
    worst_ratio = 0.0
    for x, y in accepted:
        freq = from_omega(complex(x, y))
        k = int(rng.integers(1, 101)) * (1 if rng.random() < 0.5 else -1)
        lam = lambda_k(freq, k)
        bound = math.sqrt(2.0) * cls.M * abs(k) ** (1.0 + cls.tau)
        ratio = abs(lam) / bound
        worst_ratio = max(worst_ratio, ratio)
        if ratio > 1.0:
            lam_violations += 1

    exp_violations = 0
    worst_gap = 0.0
    zs = (rng.uniform(-2.0, 2.0, n_samples)
          + 1j * rng.uniform(-0.5, 0.5, n_samples))
    for z in zs:
        try:
            check_exp_dist_bound(complex(z))
        except BoundViolationError:
            exp_violations += 1
    ok = lam_violations == 0 and exp_violations == 0
    return ok, (f"lambda bound: {lam_violations} violations in {n_samples} "
                f"(q in K_M, |k|<=100) samples, worst |lam|/bound={worst_ratio:.3f}; "
                f"exp-dist bound: {exp_violations} violations in {n_samples} "
                f"band samples")


def check_taylor_structure():
    rng = np.random.default_rng(90210)
    mag = rng.uniform(0.2, 1.0, 10)
    phase = rng.uniform(0.0, 2.0 * np.pi, 10)
    c = np.zeros(11, dtype=np.complex128)
    for j, k in enumerate(range(-5, 6)):
        if k == 0:
            continue
        idx = j if j < 5 else j - 1
        c[j] = mag[idx] * np.exp(1j * phase[idx]) * np.exp(-0.4 * abs(k))
    f = FourierSeries(c)
    eps = 0.05
    data = taylor0_recursion(f, eps, N_q=40)

    support_bad = 0
    top_worst = 0.0
    for n, un in enumerate(data.orders, start=1):
        if un.N > n:
            extra = np.concatenate([un.coeffs[:un.N - n],
                                    un.coeffs[un.N + n + 1:]])
            if np.max(np.abs(extra)) > 0.0:
                support_bad += 1
        for sgn in (1, -1):
            top_worst = max(top_worst,
                            abs(un.coeff(sgn * n) - eps * f.coeff(sgn * n)))
    g = inverse_scattering(data)
    scat_worst = max(abs(g.coeff(k) - eps * f.coeff(k))
                     for k in range(-40, 41) if k != 0)
    ok = support_bad == 0 and top_worst < 1e-14 and scat_worst < 1e-12
    return ok, (f"40 orders, degree-5 f: support-law violations={support_bad} "
                f"(exact), top-law worst={top_worst:.2e} (<1e-14), "
                f"scattering worst={scat_worst:.2e} (<1e-12)")


def check_obstruction_cases():
    f = FourierSeries.cos()
    t0 = time.perf_counter()
    details = []
    ok = True
    for p, m in ((1, 2), (1, 3), (2, 5), (1, 7)):
        rep = obstruction_order(f, RationalFreq(p, m))
        pos = all(b > 0 for b in rep.betas[:rep.n_star or 0])
        gap = (abs(rep.gamma_engine - rep.gamma_oracle)
               / max(abs(rep.gamma_oracle), 1e-300))
        case_ok = (rep.n_star == m) and pos and gap < 1e-12
        ok = ok and case_ok
        details.append(f"({p},{m}): n*={rep.n_star}, gap={gap:.1e}")
    secs = time.perf_counter() - t0
    ok = ok and secs < 5.0
    return ok, ("; ".join(details)
                + f"; betas positive; time={secs:.2f}s (<5s)")


def check_set_geometry():
    results = []
    measures = []
    for M in (6.0, 12.0):
        cls = DiophantineClass(M, 0.5, 10_000)
        measure = cls._gaps()[2]
        bound = cls.measure_bound()
        measures.append(measure)
        results.append((M, measure, bound, measure <= bound))
        del cls
    mono = measures[1] <= measures[0]
    ok = all(r[3] for r in results) and mono
    detail = "; ".join(
        f"M={int(M)}: measure={m:.6f} <= bound={b:.6f} ({'ok' if good else 'X'})"
        for M, m, b, good in results)
    return ok, detail + f"; monotone in M: {mono}"


def check_symmetry():
    f = FourierSeries.cos()
    defect = conjugate_reflection_check(f, from_omega(0.5 + 0.5j), 0.05)
    curve, _, _ = golden_benchmark_curve()
    vals = grid_values(curve.u, 512)
    realness = float(np.max(np.abs(vals.imag)))
    ok = defect < 1e-10 and realness < 1e-12
    return ok, (f"conj-reflection defect at 1/2+-i/2: {defect:.2e} (<1e-10); "
                f"golden realness: {realness:.2e} (<1e-12)")


def check_multi_M_consistency():
    f = FourierSeries.cos()
    freq = from_omega(GOLDEN)
    curves = []
    for M in (6.0, 12.0):
        cls = DiophantineClass(M, 0.5, 2000)
        curves.append(solve_curve(f, freq, 0.05, dioph=cls))
    diff = sup_norm(curves[0].u - curves[1].u)
    ok = diff <= 1e-12 and all(c.report.converged for c in curves)
    return ok, f"same solve under M=6 and M=12 classes: sup diff={diff:.2e} (<=1e-12)"


def check_sweep_determinism():
    from .cli import run_sweep

    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 4, 8):
            out = os.path.join(tmp, f"sweep_w{workers}.jsonl")
            fam = os.path.join(tmp, f"family_w{workers}.json")
            run_sweep(
                omega_re=(0.58, 0.62, 3),
                omega_im=(0.02, 0.06, 3),
                eps=0.05,
                f=FourierSeries.cos(),
                modes=64,
                workers=workers,
                out_path=out,
                family_path=fam,
            )
            with open(out, "rb") as fh:
                data = fh.read()
            with open(fam, "rb") as fh:
                data_f = fh.read()
            outputs[workers] = (data, data_f)
    same = (outputs[1] == outputs[4] == outputs[8])
    n_bytes = len(outputs[1][0]) + len(outputs[1][1])
    return same, (f"3x3 sweep outputs byte-identical across workers "
                  f"{{1,4,8}}: {same} ({n_bytes} bytes compared)")


# ---------------------------------------------------------------------------
# structural invariants (fast spot checks)


def _same_bits(a, b) -> bool:
    """Bit equality of complex values: unlike ==, it tells -0.0 from 0.0."""
    return (np.asarray(a, dtype=np.complex128).tobytes()
            == np.asarray(b, dtype=np.complex128).tobytes())


def check_roundtrip():
    rng = np.random.default_rng(31337)
    c = _random_series(rng, 17).coeffs.copy()
    c[[0, 1, 2]] = [complex(-0.0, -0.0), complex(-0.0, 0.5),
                    complex(0.25, -0.0)]
    s = FourierSeries(c)
    s2 = FourierSeries.from_json_dict(
        jsonio.loads(jsonio.dumps(s.to_json_dict())))
    series_ok = _same_bits(s.coeffs, s2.coeffs)
    curve, dyn, _ = golden_benchmark_curve()
    c2 = InvariantCurve.from_json_dict(
        jsonio.loads(jsonio.dumps(curve.to_json_dict(dynamical=dyn))))
    curve_ok = (_same_bits(curve.u.coeffs, c2.u.coeffs)
                and _same_bits(curve.v.coeffs, c2.v.coeffs)
                and _same_bits(curve.f.coeffs, c2.f.coeffs)
                and _same_bits(curve.eps, c2.eps)
                and _same_bits(curve.freq.omega, c2.freq.omega))
    ok = series_ok and curve_ok
    return ok, (f"series with -0.0 parts round-trips bit-exact: {series_ok}; "
                f"curve artifact round-trip bit-exact: {curve_ok}")


def check_normalization_and_v():
    curve, _, _ = golden_benchmark_curve()
    u0 = abs(curve.u.coeff(0))
    v_defect = sup_norm(curve.v - apply(NABLA_MINUS, curve.u, curve.freq))
    ok = u0 <= 1e-14 and v_defect <= 1e-13
    return ok, f"|u_0|={u0:.1e} (<=1e-14); ||v - nabla- u||={v_defect:.1e} (<=1e-13)"


def check_kernel_range():
    rng = np.random.default_rng(777)
    rf = RationalFreq(2, 5)
    phi = _random_series(rng, 23)
    proj = projector(delta_star(phi, rf), rf, 0)
    kerr = float(np.max(np.abs(proj.coeffs)))
    recon = delta_star(e_star(phi, rf), rf) + projector(phi, rf, 0)
    rec_defect = sup_norm(recon - phi) / max(sup_norm(phi), 1e-300)
    ok = kerr == 0.0 and rec_defect < 1e-14
    return ok, (f"Pi0 delta* = 0 exactly: {kerr == 0.0}; "
                f"delta* E + Pi0 = id defect {rec_defect:.1e} (<1e-14)")


def check_margin_folding():
    cls = DiophantineClass(6.0, 0.5, 2000)
    m1, w1 = dioph_real_margin(GOLDEN, cls)
    m2, w2 = dioph_real_margin(GOLDEN + 1.0, cls)
    m3, w3 = dioph_real_margin(-GOLDEN, cls)
    invariant = (m1 == m2 == m3) and (w1 == w2 == w3)
    inside = m1 >= 1.0
    m_half, _ = dioph_real_margin(0.5, cls)
    ok = invariant and inside and m_half == 0.0
    return ok, (f"margin(golden)={m1:.4f} at convergent {w1}, exactly invariant "
                f"under x+1 and -x: {invariant}; margin(1/2)={m_half} (gap point)")


def check_composition_shortcuts():
    f = FourierSeries.cos()
    out, rep = compose_id_plus(f, FourierSeries.zero(0))
    zero_ok = bool(np.array_equal(out.coeffs, f.coeffs)) and rep.aliasing_tail == 0.0
    c = 0.31 - 0.07j
    out2, rep2 = compose_id_plus(f, FourierSeries.constant(c))
    ks = np.arange(-f.N, f.N + 1)
    expected = f.coeffs * np.exp(2j * np.pi * ks * c)
    const_ok = bool(np.array_equal(out2.coeffs, expected)) \
        and rep2.aliasing_tail == 0.0
    ok = zero_ok and const_ok
    return ok, (f"u=0 branch bit-exact: {zero_ok}; "
                f"constant-shift branch matches exact phase law: {const_ok}")


def check_resonant_forcing():
    f3 = FourierSeries.basis(3, 0.5) + FourierSeries.basis(-3, 0.5)
    rep = obstruction_order(f3, RationalFreq(1, 3))
    first = rep.n_star == 1
    witness_ok = sup_norm(rep.obstruction_witness - f3) == 0.0
    rep2 = obstruction_order(FourierSeries.cos(), RationalFreq(1, 2))
    ok = first and witness_ok and rep2.n_star == 2
    return ok, (f"top-resonant forcing: n*=1 with witness=f ({witness_ok}); "
                f"cos at 1/2: n*={rep2.n_star}")


def check_taylor_vs_picard():
    f = FourierSeries.cos()
    data = taylor0_recursion(f, 0.05, N_q=40)
    u_t = taylor0_eval(data, 0.2)
    u_p, _ = picard_solve(f, from_q(0.2), 0.05)
    d = sup_norm(u_t - u_p)
    return d < 1e-8, f"taylor0(40) vs picard at q=0.2: {d:.2e} (<1e-8)"


def check_history_positivity():
    curve, _, _ = golden_benchmark_curve()
    hist = curve.report.residual_history
    ok = all(r > 0.0 for r in hist) and curve.report.converged
    return ok, (f"{len(hist)} residuals, all strictly positive, "
                f"converged flag set: {ok}")


# ---------------------------------------------------------------------------
# registry and runner


ACCEPTANCE = [
    ("A01-golden-benchmark", check_golden_benchmark),
    ("A02-quadratic-slope", check_quadratic_slope),
    ("A03-three-method-agreement", check_three_method_agreement),
    ("A04-exact-identity-suites", check_identity_suites),
    ("A05-small-divisor-bounds", check_divisor_bounds),
    ("A06-taylor-structure", check_taylor_structure),
    ("A07-obstruction-orders", check_obstruction_cases),
    ("A08-set-geometry-measure", check_set_geometry),
    ("A09-symmetry", check_symmetry),
    ("A10-multi-M-consistency", check_multi_M_consistency),
    ("A11-sweep-determinism", check_sweep_determinism),
]

INVARIANTS = [
    ("I01-artifact-roundtrip", check_roundtrip),
    ("I02-normalization-and-v", check_normalization_and_v),
    ("I03-kernel-range-split", check_kernel_range),
    ("I04-margin-folding", check_margin_folding),
    ("I05-composition-shortcuts", check_composition_shortcuts),
    ("I06-resonant-forcing", check_resonant_forcing),
    ("I07-taylor-vs-picard", check_taylor_vs_picard),
    ("I08-history-positivity", check_history_positivity),
]


def _registry(suite: str):
    if suite == "acceptance":
        return list(ACCEPTANCE)
    if suite == "invariants":
        return list(INVARIANTS)
    if suite == "all":
        return list(INVARIANTS) + list(ACCEPTANCE)
    raise ValueError(f"unknown suite {suite!r} (use invariants/acceptance/all)")


def run_check(name: str) -> CheckResult:
    for n, fn in INVARIANTS + ACCEPTANCE:
        if n == name:
            t0 = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an error
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(name, bool(passed), detail,
                               time.perf_counter() - t0)
    raise KeyError(name)


def run_suite(suite: str = "all"):
    return [run_check(name) for name, _ in _registry(suite)]


def format_table(results) -> str:
    lines = []
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"[{mark}] {r.name:<{width}}  ({r.seconds:6.2f}s)  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
