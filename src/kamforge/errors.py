"""Exception taxonomy shared across the package.

Every failure mode the numerics can hit on purpose gets its own class so
callers (and the CLI) can map it to a machine-readable diagnostic instead
of pattern-matching message strings.
"""

from __future__ import annotations

from . import jsonio


class KamforgeError(Exception):
    """Base class for all package-specific errors.

    Carries an optional ``diagnostics`` dict that the CLI serializes into
    its error JSON; it is stored JSON-native (complex values as [re, im]).
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = jsonio.encode(dict(diagnostics or {}))


class OverflowRiskError(KamforgeError):
    """An exponent would exceed the double-precision cap (|x| > ~700)."""


class ResonanceError(KamforgeError):
    """A small divisor q^k - 1 vanished to working precision."""


class NearSingularError(KamforgeError):
    """A pointwise inverse or average hit the configured floor."""


class BoundViolationError(KamforgeError):
    """A certified inequality failed: bug or non-member input."""


class DivergenceError(KamforgeError):
    """A solve residual or a Newton correction grew past the safeguard."""


class NoConvergenceError(KamforgeError):
    """Iteration budget exhausted; the diagnostics hold the residual history."""
