"""Floating-point reference root finder, independent of the exact pipeline.

Simultaneous iteration refines all roots of a polynomial at once in complex
double precision.  The integer machinery never calls into this module; it
exists so tests and benchmarks can compare against a method with no shared
code or arithmetic.  It is the only part of the package that needs numpy,
which it imports on first use: ``pip install seqroots[oracle]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import ModuleType

from .errors import OracleUnavailableError
from .poly import MonicIntPolynomial

#: ``durand_kerner`` stops once its largest step is below this.
STEP_TOL = 1e-12
#: ``durand_kerner``'s iteration cap, per starting rotation.
DK_MAX_ITER = 500
#: ``newton_refine``'s iteration cap.
NEWTON_MAX_ITER = 60
#: A root with an imaginary part at most this counts as real.
IMAG_TOL = 1e-9


def _numpy() -> ModuleType:
    try:
        import numpy
    except ImportError:
        raise OracleUnavailableError(
            "the float reference needs numpy: pip install seqroots[oracle]"
        ) from None
    return numpy


@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots found by one floating-point run."""

    roots: tuple[complex, ...]
    residuals: tuple[float, ...]
    converged: bool
    iterations: int

    def real_roots(self) -> tuple[float, ...]:
        """Real parts of roots with an imaginary part of at most
        ``IMAG_TOL``, ascending."""
        return tuple(sorted(z.real for z in self.roots if abs(z.imag) <= IMAG_TOL))


def durand_kerner(p: MonicIntPolynomial) -> ComplexRootSet:
    """Refine all roots simultaneously until the largest step is below
    ``STEP_TOL``, for at most ``DK_MAX_ITER`` iterations.

    Starts on a circle at the root modulus bound, rotated off the real axis
    so conjugate symmetry cannot trap the iteration.  A non-finite
    intermediate triggers one more attempt from a different rotation before
    the run is reported as failed.
    """
    np = _numpy()
    m = p.degree
    coeffs = np.asarray(p.with_leading(), dtype=np.float64)
    if m == 1:
        root = complex(-p.coeffs[0])
        return ComplexRootSet((root,), (0.0,), True, 0)
    radius = 1.0 + max(abs(a) for a in p.coeffs)
    for angle0 in (0.4, 1.1):
        z = radius * np.exp(1j * (2.0 * np.pi * np.arange(m) / m + angle0))
        ok = False
        used = 0
        for it in range(1, DK_MAX_ITER + 1):
            used = it
            diffs = z[:, None] - z[None, :]
            np.fill_diagonal(diffs, 1.0)
            step = np.polyval(coeffs, z) / np.prod(diffs, axis=1)
            z = z - step
            if not np.all(np.isfinite(z)):
                break
            if float(np.max(np.abs(step))) < STEP_TOL:
                ok = True
                break
        if np.all(np.isfinite(z)):
            residuals = np.abs(np.polyval(coeffs, z))
            return ComplexRootSet(
                tuple(complex(w) for w in z),
                tuple(float(r) for r in residuals),
                bool(ok),
                used,
            )
    nan = complex(float("nan"), float("nan"))
    return ComplexRootSet((nan,) * m, (math.inf,) * m, False, DK_MAX_ITER)


def dominance_gap(rs: ComplexRootSet) -> float:
    """Modulus ratio of the two largest roots; 1.0 means a tie, inf no rival."""
    mods = sorted((abs(z) for z in rs.roots), reverse=True)
    if len(mods) < 2 or mods[1] == 0.0:
        return math.inf
    return mods[0] / mods[1]


def newton_refine(p: MonicIntPolynomial, x0: float, digits: int) -> tuple[float, int]:
    """Polish a real root guess with float Newton steps to ``digits`` digits.

    Returns the refined value and the number of steps taken, at most
    ``NEWTON_MAX_ITER``.  Accuracy is capped by double precision regardless
    of ``digits``.
    """
    np = _numpy()
    coeffs = np.asarray(p.with_leading(), dtype=np.float64)
    deriv = np.polyder(coeffs)
    x = float(x0)
    tol = 10.0 ** (-digits)
    for it in range(1, NEWTON_MAX_ITER + 1):
        dfx = np.polyval(deriv, x)
        if dfx == 0.0:
            return x, it
        step = np.polyval(coeffs, x) / dfx
        x -= step
        if abs(step) <= tol * max(1.0, abs(x)):
            return x, it
    return x, NEWTON_MAX_ITER
