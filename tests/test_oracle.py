"""Floating-point reference solver: known roots, Vieta sums, gap measure."""

import math
import subprocess
import sys

import pytest

from seqroots import make_polynomial
from seqroots.oracle import dominance_gap, durand_kerner, newton_refine


class TestDurandKerner:
    def test_known_quadratic(self):
        rs = durand_kerner(make_polynomial([1, 2, -1]))
        assert rs.converged
        roots = sorted(z.real for z in rs.roots)
        assert abs(roots[0] - (-1 - math.sqrt(2))) < 1e-10
        assert abs(roots[1] - (-1 + math.sqrt(2))) < 1e-10
        assert all(abs(z.imag) < 1e-10 for z in rs.roots)

    def test_known_cubic(self):
        rs = durand_kerner(make_polynomial([1, 0, 0, -2]))
        assert rs.converged
        reals = rs.real_roots()
        assert len(reals) == 1
        assert abs(reals[0] - 2 ** (1 / 3)) < 1e-10
        complex_pair = [z for z in rs.roots if abs(z.imag) > 1e-9]
        assert len(complex_pair) == 2

    def test_linear(self):
        rs = durand_kerner(make_polynomial([1, -5]))
        assert rs.converged
        assert rs.roots == (5 + 0j,)

    def test_no_real_roots(self):
        rs = durand_kerner(make_polynomial([1, 0, 1]))
        assert rs.converged
        assert rs.real_roots() == ()
        assert sorted(z.imag for z in rs.roots) == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_residuals_are_small(self, corpus):
        for entry in corpus[:30]:
            scale = 1.0 + max(abs(z) for z in entry.roots.roots) ** entry.poly.degree
            assert max(entry.roots.residuals) < 1e-8 * scale


class TestOracleInvariants:
    def test_vieta_sum_and_product(self, corpus):
        for entry in corpus:
            roots = entry.roots.roots
            m = entry.poly.degree
            a = entry.poly.coeffs
            total = sum(roots)
            prod = 1 + 0j
            for z in roots:
                prod *= z
            scale = 1.0 + max(abs(z) for z in roots) ** m
            assert abs(total - (-a[0])) < 1e-6 * scale
            assert abs(prod - ((-1) ** m * a[-1])) < 1e-6 * scale

    def test_conjugate_closure(self, corpus):
        for entry in corpus:
            nonreal = [z for z in entry.roots.roots if abs(z.imag) > 1e-9]
            for z in nonreal:
                partner = min(nonreal, key=lambda w: abs(w - z.conjugate()))
                assert abs(partner - z.conjugate()) < 1e-6


class TestDominanceGap:
    def test_separated_quadratic(self):
        rs = durand_kerner(make_polynomial([1, 2, -1]))
        gap = dominance_gap(rs)
        assert abs(gap - (1 + math.sqrt(2)) / (math.sqrt(2) - 1)) < 1e-6

    def test_equal_modulus_roots(self):
        rs = durand_kerner(make_polynomial([1, 0, 0, -2]))
        assert abs(dominance_gap(rs) - 1.0) < 1e-9

    def test_linear_is_infinite(self):
        rs = durand_kerner(make_polynomial([1, -5]))
        assert dominance_gap(rs) == math.inf


class TestNewtonRefine:
    def test_polishes_to_requested_digits(self):
        p = make_polynomial([1, 2, -1])
        x, steps = newton_refine(p, -2.4, 12)
        assert abs(x - (-1 - math.sqrt(2))) < 1e-11
        assert steps < 20


class TestNumpyIsOptional:
    def test_importing_the_package_leaves_numpy_out(self):
        # a fresh interpreter: this one has numpy loaded by the tests above
        code = "import sys, seqroots; sys.exit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_oracle_without_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)  # import fails
        p = make_polynomial([1, 2, -1])
        for call in (lambda: durand_kerner(p), lambda: newton_refine(p, 0.4, 12)):
            with pytest.raises(ImportError, match=r"pip install seqroots\[oracle\]"):
                call()
