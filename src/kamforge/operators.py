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
factors; e_q is assembled as gamma * gamma_minus, both factors bounded.

Every table of a frequency is a slice of one set per frequency
(``_FrequencyTables``), bit for bit the vector a build at the requested
cutoff N gives, with the refusals at that N: the shift guard
2 pi N |Im omega| <= ``EXP_CAP`` and ``ResonanceError`` at the smallest
vanishing k <= N (no frequency is a pole: ``from_omega`` refuses them).
``_frequency_tables``, a functools cache of the last two frequencies' sets,
is the one cache on the solver path: ``apply`` multiplies by read-only
views of them.  ``multiplier_table``, the public accessor whose functools
cache perfbench reads, keeps read-only copies of slices.
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
    check_exponent,
    mode_phases,
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

    The shift family is q^k from one ``mode_phases`` pass and the divisor
    family lambda_k from one ``lambda_pass``, each at least
    ``_TABLE_FLOOR`` wide; every kind is derived from its family's table
    once per width.  A request past M rebuilds the family at max(N, 2M),
    so a solve builds each family once or twice; the q^k width stops at
    the shift guard's limit.
    """

    def __init__(self, freq: Frequency):
        self.freq = freq
        # keyed by family: True for the q^k kinds, False for the lambda_k ones
        self.width: dict = {}   # M
        self.kinds: dict = {}   # {kind: vector for k = -M..M}
        self.vanished = 0       # smallest |k| <= M at which q^k - 1 vanished

    def table(self, N: int, kind: MultiplierKind) -> np.ndarray:
        """The kind's vector for k = -N..N, a view of its full-width table."""
        shift = kind in _SHIFT_KINDS
        if shift:  # OverflowRiskError if some q^k, |k| <= N, would overflow
            check_exponent(_TWO_PI * N * abs(self.freq.omega.imag), "shift",
                           cutoff=N)
        if N > self.width.get(shift, -1):
            self._build(shift, N)
        if not shift and 0 < self.vanished <= N:
            raise resonance_error(self.vanished, self.freq.omega)
        kinds = self.kinds[shift]
        if kind not in kinds:
            kinds[kind] = _derive(kinds, kind)
            kinds[kind].flags.writeable = False
        M = self.width[shift]
        return kinds[kind][M - N:M + N + 1]

    def _build(self, shift: bool, N: int) -> None:
        M = max(N, 2 * self.width.get(shift, 0), _TABLE_FLOOR)
        if shift:
            a = abs(self.freq.omega.imag)
            while M > N and _TWO_PI * M * a > EXP_CAP:  # stop at the guard
                M = max(N, min(M - 1, int(EXP_CAP / (_TWO_PI * a))))
            kind, t = SHIFT_PLUS, mode_phases(self.freq.omega, M, "shift", cutoff=M)
        else:
            kind, (t, self.vanished) = GAMMA, lambda_pass(self.freq, M)
        t.flags.writeable = False
        self.kinds[shift] = {kind: t}
        self.width[shift] = M


def _derive(kinds: dict, kind: MultiplierKind) -> np.ndarray:
    """A kind from its family's q^k or lambda_k table.

    The q^{-k} and -lambda_{-k} vectors are those tables reversed (and
    negated).
    """
    if kind in _SHIFT_KINDS:
        plus = kinds[SHIFT_PLUS]
        minus = plus[::-1]
        return {SHIFT_MINUS: minus, NABLA: plus - 1.0,
                NABLA_MINUS: 1.0 - minus, DELTA: plus - 2.0 + minus}[kind]
    gamma = kinds[GAMMA]
    minus = -gamma[::-1]
    return {GAMMA_MINUS: minus, E_Q: gamma * minus}[kind]


@lru_cache(maxsize=2)
def _frequency_tables(freq: Frequency) -> _FrequencyTables:
    """The tables of the last two frequencies: a solve, or a sweep point,
    asks for one frequency's tables from its first iteration to its last."""
    return _FrequencyTables(freq)


@lru_cache(maxsize=64)
def multiplier_table(freq: Frequency, N: int, kind: MultiplierKind) -> np.ndarray:
    """The multiplier vector for modes k = -N..N (read-only, cached).

    The public accessor; the solvers read the frequency's tables through
    ``apply`` instead.  A copy of a slice of those tables, so that this
    cache pins no frequency's full tables.
    """
    t = _frequency_tables(freq).table(N, kind).copy()
    t.flags.writeable = False
    return t


def apply(kind: MultiplierKind, phi: FourierSeries, freq: Frequency) -> FourierSeries:
    """Apply a diagonal multiplier; cutoff is unchanged.

    Raises ``OverflowRiskError`` if a shift exponent exceeds the cap or the
    multiplied coefficients stop being finite, ``ResonanceError`` when a
    divisor q^k - 1 vanishes to working precision.
    """
    out = phi.coeffs * _frequency_tables(freq).table(phi.N, kind)
    if not np.isfinite(out).all():
        raise OverflowRiskError(
            f"{kind.value} produced non-finite coefficients",
            {"kind": kind.value, "cutoff": phi.N},
        )
    return FourierSeries._of(out)


def max_divisor_magnitude(freq: Frequency, N: int):
    """Largest |lambda_k| over 0 < |k| <= N, with its k (divergence diagnostics)."""
    mags = np.abs(_frequency_tables(freq).table(N, GAMMA))
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
