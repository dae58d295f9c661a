"""Integer sequence families driven by an m-term recurrence.

Given a monic integer polynomial ``p`` of degree ``m`` and an affine shift
``(a, b)``, the family consists of ``m`` integer sequences advanced
together: the state vectors are ``S_j = M^j S_0`` for the iteration matrix
``M = a*I + b*C``, ``C`` the companion matrix of ``p`` (``a = 0`` and
``b = 1`` by default).  The characteristic polynomial of ``M`` is
``shift_scale(p, shift)``.  The family keeps ``M`` as a
``companion.IterationMatrix``, and each step is one ``companion.mat_vec``:
a dot product of the first row with the current vector, which gives the
new first component, plus a shift of the others:

    S_(j+1)[0] = M[0] . S_j,    S_(j+1)[i] = a*S_j[i] + b*S_j[i-1]

For the companion matrix itself the shift is a plain copy, and the first
component obeys the scalar recurrence
``s_(j+1) = -a_1 s_j - a_2 s_(j-1) - ... - a_m s_(j-m+1)``; the m sequences
are then one sequence read at m offsets.  ``M`` has the eigenvectors of
``C``, so component ratios of these vectors converge to roots of ``p``:
the ratio of adjacent components at a fixed step tends to the root whose
image ``a + b*r`` dominates in absolute value, and the step-over-step
ratio within one sequence tends to that dominant image itself.  A family
stores ``M^j S_0`` exactly.

Under a shift a step costs ``3m - 2`` products, yet the first component
of ``M^j S_0`` alone obeys the scalar recurrence of ``shift_scale(p,
shift)`` (Cayley-Hamilton).  So a shifted run of ``driver._single_root``
makes the ``m - 1`` start products of ``M`` itself, then steps the family
of ``shift_scale(p, shift)`` under the identity shift, started through the
private ``_start`` from those first components, and carries the second
component beside it.  The public family, and ``seqroots sequences
--shift``, still step ``M`` whole.  An extraction round of
``driver._extract_bracket`` builds no family: it steps the identity-shift
product ``(top . v, v_1, ..., v_(m-1))`` on the first row of its reversed
polynomial's companion itself, from ``e_1``, and samples from its first
product, where a family would make ``m - 1`` start products first.  A
round makes about seven products on the test corpus and reads only two
components of each vector, so a family's construction, window and
per-step ``mat_vec`` call would cost about as much as the round.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import islice
from operator import index
from typing import Optional, Sequence

from .companion import IntVector, iteration_matrix, mat_vec
from .errors import (
    DimensionMismatchError,
    OutOfRangeError,
    ZeroDenominatorError,
    ZeroSeedError,
)
from .poly import IDENTITY_SHIFT, AffineShift, MonicIntPolynomial


def default_seed(m: int) -> IntVector:
    """Standard basis seed ``(1, 0, ..., 0)``."""
    return (1,) + (0,) * (m - 1)


class SequenceFamily:
    """Mutable, single-owner state machine over the m sequences.

    Distinct families share nothing and may run concurrently; a single
    family must not be stepped from two tasks at once.  The family iterates
    ``self.matrix = iteration_matrix(poly, shift)``; its cross ratios
    approach a root of ``poly``.  ``current`` is the vector at step ``j``.
    Seed components must be integers (``TypeError`` otherwise).

    The private ``_start`` is the vector at step ``m - 1``, made by the
    caller: the family makes no start products, stores no earlier step and
    takes ``peak_bits`` from that vector alone.  A shifted run of
    ``driver._single_root`` starts its first-component family this way.
    An extraction round of ``driver._extract_bracket`` builds no family: it
    steps its own companion row (see the module docstring).
    """

    __slots__ = ("poly", "shift", "matrix", "degree", "j", "current", "peak_bits",
                 "_copies", "_stored")

    def __init__(
        self,
        poly: MonicIntPolynomial,
        seed: Optional[Sequence[int]] = None,
        *,
        shift: AffineShift = IDENTITY_SHIFT,
        keep_history: bool = False,
        _start: Optional[IntVector] = None,
    ) -> None:
        matrix = iteration_matrix(poly, shift)
        # under (0, 1) a step copies all components but the first
        copies = matrix.a == 0 and matrix.b == 1
        m = poly.degree
        products = m - 1
        if _start is not None:
            # the vector at step m - 1, already made by the caller
            seed, products = _start, 0
        elif seed is None:
            seed = default_seed(m)
        else:
            seed = tuple(map(index, seed))
            if len(seed) != m:
                raise DimensionMismatchError(f"seed has dim {len(seed)}, need {m}")
            if not any(seed):
                raise ZeroSeedError("seed vector is zero")
        # every vector with ``keep_history``, else the last m
        stored = [seed] if keep_history else deque([seed], maxlen=m)
        vec = seed
        peak = max(map(int.bit_length, seed))
        for _ in range(products):
            vec = mat_vec(matrix, vec)
            stored.append(vec)
            bits = vec[0].bit_length() if copies else max(map(int.bit_length, vec))
            if bits > peak:
                peak = bits
        self.poly = poly
        self.shift = shift
        self.matrix = matrix
        self.degree = m
        self.j = m - 1
        self.current = vec
        self.peak_bits = peak
        self._copies = copies
        self._stored = stored

    # -- state ------------------------------------------------------------

    @property
    def window(self) -> tuple[IntVector, ...]:
        """The last ``m`` vectors, the current one last (fewer for a family
        started from ``_start`` that has made fewer than ``m - 1`` steps)."""
        stored = self._stored
        return tuple(islice(stored, max(0, len(stored) - self.degree), None))

    def vector(self, j: int) -> IntVector:
        """State vector at step ``j`` (needs history, or ``j`` inside the window)."""
        first = self.j - len(self._stored) + 1
        if first <= j <= self.j:
            return self._stored[j - first]
        raise OutOfRangeError(f"step {j} outside the stored steps [{first}, {self.j}]")

    # -- advancing --------------------------------------------------------

    def step(self) -> IntVector:
        """Advance by one index and return the new vector ``M v`` for the
        current ``v``.

        Under the identity shift the components after the first were stored,
        and counted in ``peak_bits``, one step earlier.
        """
        vec = mat_vec(self.matrix, self.current)
        self.j += 1
        self.current = vec
        self._stored.append(vec)
        bits = vec[0].bit_length() if self._copies else max(map(int.bit_length, vec))
        if bits > self.peak_bits:
            self.peak_bits = bits
        return vec

    def run_to(self, j: int) -> None:
        """Step until the current index reaches ``j``."""
        while self.j < j:
            self.step()

    # -- accessors and ratios ---------------------------------------------

    def term(self, i: int, j: int) -> int:
        """Stored term of sequence ``i`` (1-based) at step ``j``."""
        if not 1 <= i <= self.degree:
            raise OutOfRangeError(f"sequence index {i} outside 1..{self.degree}")
        return self.vector(j)[i - 1]

    def cross_ratio(self, i: int, j: Optional[int] = None) -> Fraction:
        """Exact ratio of components ``i`` over ``i+1`` at step ``j``.

        Converges to the root of ``poly`` whose image under ``shift``
        dominates.
        """
        if not 1 <= i <= self.degree - 1:
            raise OutOfRangeError(f"cross ratio index {i} outside 1..{self.degree - 1}")
        vec = self.current if j is None else self.vector(j)
        if vec[i] == 0:
            raise ZeroDenominatorError(
                f"component {i + 1} is zero at step {self.j if j is None else j}"
            )
        return Fraction(vec[i - 1], vec[i])

    def successive_ratio(self, i: int, j: Optional[int] = None) -> Fraction:
        """Exact ratio of sequence ``i`` at step ``j`` over step ``j-1``.

        Converges to the dominant eigenvalue of the iteration matrix (the
        shifted image of the root).
        """
        if not 1 <= i <= self.degree:
            raise OutOfRangeError(f"sequence index {i} outside 1..{self.degree}")
        if j is None:
            j = self.j
        if j < 1:
            raise OutOfRangeError("successive ratio needs j >= 1")
        prev = self.vector(j - 1)[i - 1]
        cur = self.vector(j)[i - 1]
        if prev == 0:
            raise ZeroDenominatorError(f"sequence {i} is zero at step {j - 1}")
        return Fraction(cur, prev)

