"""Diagonal Fourier multipliers of the twist-map difference calculus.

On mode k the shift phi -> phi(. + omega) multiplies by q^k, so every
operator in the first-difference calculus is a diagonal multiplier:

    shift_plus   q^k              shift_minus  q^{-k}
    nabla        q^k - 1          nabla_minus  1 - q^{-k}
    delta        q^k - 2 + q^{-k}                (= nabla nabla_minus)
    gamma        lambda_k = 1/(q^k-1), 0 at k=0  (right inverse of nabla)
    gamma_minus  -lambda_{-k},          0 at k=0 (right inverse of nabla_minus)
    e_q          1/(q^k - 2 + q^{-k}),  0 at k=0 (right inverse of delta)

gamma / gamma_minus / e_q annihilate the mean, which is exactly why the
linearized KAM equation is solvable only up to a constant.  The divisor
table comes from ``frequency.lambda_table``, which is branch-stable: the
product q^k * lambda_k is never formed from separately overflowing
factors; e_q is assembled as gamma * gamma_minus, both factors bounded.

``multiplier_table`` is the one cache: a read-only vector per (frequency,
cutoff, kind), built on a miss from one numpy pass over q^k or lambda_k.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import OverflowRiskError
from .fourier import FourierSeries, check_exponent, mode_phases
from .frequency import Frequency, lambda_table


class MultiplierKind(Enum):
    SHIFT_PLUS = "shift_plus"
    SHIFT_MINUS = "shift_minus"
    NABLA = "nabla"
    NABLA_MINUS = "nabla_minus"
    DELTA = "delta"
    GAMMA = "gamma"
    GAMMA_MINUS = "gamma_minus"
    E_Q = "e_q"


# short aliases so call sites read like the calculus
SHIFT_PLUS = MultiplierKind.SHIFT_PLUS
SHIFT_MINUS = MultiplierKind.SHIFT_MINUS
NABLA = MultiplierKind.NABLA
NABLA_MINUS = MultiplierKind.NABLA_MINUS
DELTA = MultiplierKind.DELTA
GAMMA = MultiplierKind.GAMMA
GAMMA_MINUS = MultiplierKind.GAMMA_MINUS
E_Q = MultiplierKind.E_Q


def _shift_table(freq: Frequency, N: int) -> np.ndarray:
    """q^k for k = -N..N, or OverflowRiskError if any would overflow.

    A finite omega reads as a pole once its chart coordinate underflows
    (|Im omega| past about 119); there q^{+-1} already overflow, so the
    exponent 2 pi |Im omega| is named against the cap.
    """
    if freq.is_pole:
        if math.isfinite(freq.omega.imag):
            check_exponent(2.0 * math.pi * abs(freq.omega.imag), "shift",
                           cutoff=N)
        raise OverflowRiskError(
            "shift multipliers are undefined at the chart poles q = 0, infinity"
        )
    return mode_phases(freq.omega, N, "shift", cutoff=N)


@lru_cache(maxsize=512)
def multiplier_table(freq: Frequency, N: int, kind: MultiplierKind) -> np.ndarray:
    """The multiplier vector for modes k = -N..N (read-only, cached).

    The q^{-k} and -lambda_{-k} vectors are the q^k and lambda_k tables
    reversed (and negated).
    """
    if kind in (GAMMA, GAMMA_MINUS, E_Q):
        gamma = lambda_table(freq, N)
        minus = -gamma[::-1]
        t = {GAMMA: gamma, GAMMA_MINUS: minus, E_Q: gamma * minus}[kind]
    else:
        plus = _shift_table(freq, N)
        minus = plus[::-1]
        t = {SHIFT_PLUS: plus, SHIFT_MINUS: minus, NABLA: plus - 1.0,
             NABLA_MINUS: 1.0 - minus, DELTA: plus - 2.0 + minus}[kind]
    t.flags.writeable = False
    return t


def apply(kind: MultiplierKind, phi: FourierSeries, freq: Frequency) -> FourierSeries:
    """Apply a diagonal multiplier; cutoff is unchanged.

    Raises ``OverflowRiskError`` if a shift exponent exceeds the cap or the
    multiplied coefficients stop being finite, ``ResonanceError`` when a
    divisor q^k - 1 vanishes to working precision.
    """
    table = multiplier_table(freq, phi.N, kind)
    out = phi.coeffs * table
    if not np.all(np.isfinite(out)):
        raise OverflowRiskError(
            f"{kind.value} produced non-finite coefficients",
            {"kind": kind.value, "cutoff": phi.N},
        )
    return FourierSeries._of(out)


def max_divisor_magnitude(freq: Frequency, N: int):
    """Largest |lambda_k| over 0 < |k| <= N, with its k (divergence diagnostics)."""
    mags = np.abs(lambda_table(freq, N))
    i = int(np.argmax(mags))
    return float(mags[i]), int(i - N)


def e_n(phi: FourierSeries, n: int) -> FourierSeries:
    """Order-n Taylor piece of E_q at q = 0.

    E_q = sum_{n>=1} q^n E^(n) with E^(n) phi = sum_{m d = n} d (phi_m e_m +
    phi_{-m} e_{-m}); only divisor modes of n survive.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    N_out = min(n, phi.N)
    out = np.zeros(2 * N_out + 1, dtype=np.complex128)
    for m in range(1, N_out + 1):
        if n % m == 0:
            d = n // m
            out[m + N_out] = d * phi.coeff(m)
            out[-m + N_out] = d * phi.coeff(-m)
    return FourierSeries._of(out)
