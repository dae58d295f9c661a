"""Shared fixtures: seeded random polynomial corpora, and ``chebyshev``.

The corpus is drawn once per session from a fixed seed, then filtered by
the floating-point reference solver: it keeps monic polynomials of degree
2 to 4 with coefficients in [-9, 9], nonzero constant term, a converged
reference root set, and a dominant root that stands out by modulus factor
1.05 or more.  A sub-corpus keeps only polynomials whose roots are all
real and pairwise well separated, where real-root enumeration must be
complete.  ``chebyshev(n)`` is ``2*T_n(x/2)``, the high-degree case of the
golden records and the enumeration tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from seqroots import MonicIntPolynomial, make_polynomial
from seqroots.oracle import ComplexRootSet, dominance_gap, durand_kerner

CORPUS_SEED = 20260823
CORPUS_SIZE = 100
GAP_MIN = 1.05
IMAG_TOL = 1e-9
SEPARATION_MIN = 0.05


@dataclass(frozen=True)
class CorpusEntry:
    poly: MonicIntPolynomial
    roots: ComplexRootSet
    gap: float

    @property
    def dominant(self) -> float:
        # a strictly largest-modulus root of a real polynomial is real
        return max(self.roots.roots, key=abs).real

    @property
    def all_real_separated(self) -> bool:
        if any(abs(z.imag) > IMAG_TOL for z in self.roots.roots):
            return False
        reals = sorted(z.real for z in self.roots.roots)
        return all(b - a >= SEPARATION_MIN for a, b in zip(reals, reals[1:]))


def build_corpus(count: int = CORPUS_SIZE, seed: int = CORPUS_SEED) -> list[CorpusEntry]:
    rng = random.Random(seed)
    entries: list[CorpusEntry] = []
    while len(entries) < count:
        degree = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)]
        if coeffs[-1] == 0:
            continue
        poly = make_polynomial([1, *coeffs])
        roots = durand_kerner(poly)
        if not roots.converged:
            continue
        gap = dominance_gap(roots)
        if gap < GAP_MIN:
            continue
        entries.append(CorpusEntry(poly, roots, gap))
    return entries


def chebyshev(n: int) -> MonicIntPolynomial:
    """``2*T_n(x/2)``: monic, integer, all ``n`` roots real and clustered at
    the ends of (-2, 2)."""
    older, newer = [2], [1, 0]
    for _ in range(n - 1):
        padded = [0, 0] + older
        older, newer = newer, [c - o for c, o in zip(newer + [0], padded)]
    return make_polynomial(newer)


@pytest.fixture(scope="session")
def corpus() -> list[CorpusEntry]:
    return build_corpus()


@pytest.fixture(scope="session")
def simple_real_corpus(corpus: list[CorpusEntry]) -> list[CorpusEntry]:
    picked = [entry for entry in corpus if entry.all_real_separated]
    assert picked, "corpus seed produced no all-real well-separated entries"
    return picked
