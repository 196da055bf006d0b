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
table comes from ``frequency.lambda_pass``, which is branch-stable: the
product q^k * lambda_k is never formed from separately overflowing
factors, and one exponential per |k| serves both k and -k; e_q is
assembled as gamma * gamma_minus, both factors bounded.

Each frequency has one set of tables (``_FrequencyTables``); a build
derives every kind of a family, and a request at cutoff N gets a slice,
bit for bit the build at N, with that N's refusals: the shift guard
2 pi N |Im omega| <= ``EXP_CAP`` (``mode_phases`` applies it where a shift
table is built) and ``ResonanceError`` at the smallest vanishing k <= N
(no frequency is a pole: ``from_omega`` refuses them).
``multiplier_table``, a functools cache of the last two frequencies' sets,
is the one cache: ``apply`` multiplies by read-only views of them, and
``multiplier_table(freq).table(N, kind)`` gives any caller the same view.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import OverflowRiskError
from .fourier import (
    DEFAULT_CUTOFF,
    EXP_CAP,
    FourierSeries,
    mode_phases,
    require_int,
)
from .frequency import Frequency, lambda_pass, resonance_error


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

_TWO_PI = 2.0 * math.pi
_SHIFT_KINDS = (SHIFT_PLUS, SHIFT_MINUS, NABLA, NABLA_MINUS, DELTA)
_TABLE_FLOOR = 2 * DEFAULT_CUTOFF  # covers a solve at the default cutoff


class _FrequencyTables:
    """One frequency's tables for |k| <= a width M per family.

    A build derives every kind of its family: the shift kinds from one
    ``mode_phases`` pass of q^k, the divisor kinds from one ``lambda_pass``
    of lambda_k, at least ``_TABLE_FLOOR`` wide.  A request past M rebuilds
    the family at max(N, 2M) (a table's length is 2M + 1), so a solve builds
    each family once or twice; the q^k width stops at the shift guard's limit.
    """

    def __init__(self, freq: Frequency):
        self.freq = freq
        self.tables: dict = {}  # {kind: read-only vector for k = -M..M}
        self.vanished = 0       # smallest |k| <= M at which q^k - 1 vanished

    def table(self, N: int, kind: MultiplierKind) -> np.ndarray:
        """The kind's vector for k = -N..N, a view of its full-width table; a
        shift build past the guard shrinks to N and raises in ``mode_phases``."""
        shift = kind in _SHIFT_KINDS
        t = self.tables.get(kind)
        if t is None or 2 * N + 1 > len(t):
            t = self._build(shift, N)[kind]
        if not shift and 0 < self.vanished <= N:
            raise resonance_error(self.vanished, self.freq.omega)
        M = len(t) // 2
        return t[M - N:M + N + 1]

    def _build(self, shift: bool, N: int) -> dict:
        M = len(self.tables.get(SHIFT_PLUS if shift else GAMMA, ())) // 2
        M = max(N, 2 * M, _TABLE_FLOOR)
        if shift:
            a = abs(self.freq.omega.imag)
            while M > N and _TWO_PI * M * a > EXP_CAP:  # stop at the guard
                M = max(N, min(M - 1, int(EXP_CAP / (_TWO_PI * a))))
            plus = mode_phases(self.freq.omega, M, "shift", cutoff=M)
            minus = plus[::-1]
            family = {SHIFT_PLUS: plus, SHIFT_MINUS: minus, NABLA: plus - 1.0,
                      NABLA_MINUS: 1.0 - minus, DELTA: plus - 2.0 + minus}
        else:
            gamma, self.vanished = lambda_pass(self.freq, M)
            minus = -gamma[::-1]
            family = {GAMMA: gamma, GAMMA_MINUS: minus, E_Q: gamma * minus}
        for t in family.values():
            t.flags.writeable = False
        self.tables.update(family)
        return family


@lru_cache(maxsize=2)
def multiplier_table(freq: Frequency) -> _FrequencyTables:
    """The tables of the last two frequencies (a solve, or a sweep point,
    asks for one frequency's from its first iteration to its last);
    ``.table(N, kind)`` is the kind's read-only vector for k = -N..N."""
    return _FrequencyTables(freq)


def apply(kind: MultiplierKind, phi: FourierSeries, freq: Frequency) -> FourierSeries:
    """Apply a diagonal multiplier; cutoff is unchanged.

    Raises ``OverflowRiskError`` if a shift exponent exceeds the cap or the
    multiplied coefficients stop being finite, ``ResonanceError`` when a
    divisor q^k - 1 vanishes to working precision.
    """
    out = phi.coeffs * multiplier_table(freq).table(phi.N, kind)
    if not np.isfinite(out).all():
        raise OverflowRiskError(
            f"{kind.value} produced non-finite coefficients",
            {"kind": kind.value, "cutoff": phi.N},
        )
    return FourierSeries._of(out)


def max_divisor_magnitude(freq: Frequency, N: int):
    """Largest |lambda_k| over 0 < |k| <= N, with its k (divergence diagnostics)."""
    mags = np.abs(multiplier_table(freq).table(N, GAMMA))
    i = int(np.argmax(mags))
    return float(mags[i]), int(i - N)


def e_n(phi: FourierSeries, n: int) -> FourierSeries:
    """Order-n Taylor piece of E_q at q = 0.

    E_q = sum_{n>=1} q^n E^(n) with E^(n) phi = sum_{m d = n} d (phi_m e_m +
    phi_{-m} e_{-m}); only divisor modes of n survive.
    """
    require_int(n, "n", 1)
    N_out = min(n, phi.N)
    out = np.zeros(2 * N_out + 1, dtype=np.complex128)
    for m in range(1, N_out + 1):
        if n % m == 0:
            d = n // m
            out[m + N_out] = d * phi.coeff(m)
            out[-m + N_out] = d * phi.coeff(-m)
    return FourierSeries._of(out)
