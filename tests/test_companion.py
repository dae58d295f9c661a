"""Companion matrices, affine images, and exact matrix-vector products."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqroots import AffineShift, DimensionMismatchError, make_polynomial
from seqroots.companion import affine, cayley_hamilton_residual, companion_of, mat_vec


class TestCompanionOf:
    def test_quadratic_layout(self):
        c = companion_of(make_polynomial([1, 2, -1]))
        assert c.rows == ((-2, 1), (1, 0))
        assert c.dim == 2

    def test_cubic_layout(self):
        c = companion_of(make_polynomial([1, 0, 0, -2]))
        assert c.rows == ((0, 0, 2), (1, 0, 0), (0, 1, 0))


class TestAffine:
    def test_shifted_cubic_matches_known_matrix(self):
        c = companion_of(make_polynomial([1, 0, 0, -2]))
        shifted = affine(c, AffineShift(1, 1))
        assert shifted.rows == ((1, 0, 2), (1, 1, 0), (0, 1, 1))

    def test_shifted_quadratic_matches_known_matrix(self):
        c = companion_of(make_polynomial([1, 2, -1]))
        shifted = affine(c, AffineShift(2, 1))
        assert shifted.rows == ((0, 1), (1, 2))

    def test_identity_leaves_matrix_alone(self):
        c = companion_of(make_polynomial([1, 4, -3, 7]))
        assert affine(c, AffineShift(0, 1)) == c

    def test_scale_multiplies_entries(self):
        c = companion_of(make_polynomial([1, 2, -1]))
        doubled = affine(c, AffineShift(0, 2))
        assert doubled.rows == ((-4, 2), (2, 0))


class TestMatVec:
    def test_known_product(self):
        c = companion_of(make_polynomial([1, 2, -1]))
        assert mat_vec(c, (1, 0)) == (-2, 1)
        assert mat_vec(c, (-2, 1)) == (5, -2)

    def test_dimension_check(self):
        c = companion_of(make_polynomial([1, 2, -1]))
        with pytest.raises(DimensionMismatchError):
            mat_vec(c, (1, 0, 0))


class TestCayleyHamilton:
    def test_companion_satisfies_own_polynomial(self, corpus):
        for entry in corpus[:20]:
            c = companion_of(entry.poly)
            residual = cayley_hamilton_residual(entry.poly, c)
            assert all(all(x == 0 for x in row) for row in residual)

    def test_shifted_matrix_satisfies_shifted_polynomial(self):
        from seqroots.poly import shift_scale

        p = make_polynomial([1, 0, 0, -2])
        s = AffineShift(1, 1)
        shifted = affine(companion_of(p), s)
        q = shift_scale(p, s)
        residual = cayley_hamilton_residual(q, shifted)
        assert all(all(x == 0 for x in row) for row in residual)

    def test_wrong_polynomial_leaves_nonzero_residual(self):
        p = make_polynomial([1, 2, -1])
        other = make_polynomial([1, 0, -1])
        residual = cayley_hamilton_residual(other, companion_of(p))
        assert any(any(x != 0 for x in row) for row in residual)


class TestAgainstEntrywiseDefinitions:
    """The row-slice builders agree with the matrices defined entry by entry."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
        a=st.integers(-9, 9),
        b=st.integers(-9, 9).filter(bool),
        v=st.lists(st.integers(-(10**20), 10**20), min_size=9, max_size=9),
    )
    def test_companion_affine_and_product(self, tail, a, b, v):
        m = len(tail)
        c = companion_of(make_polynomial([1, *tail]))
        assert c.rows == (
            tuple(-x for x in tail),
            *(tuple(int(k == i - 1) for k in range(m)) for i in range(1, m)),
        )
        shifted = affine(c, AffineShift(a, b))
        assert shifted.rows == tuple(
            tuple(b * entry + (a if i == k else 0) for k, entry in enumerate(row))
            for i, row in enumerate(c.rows)
        )
        v = v[:m]
        assert mat_vec(shifted, v) == tuple(
            sum(entry * x for entry, x in zip(row, v)) for row in shifted.rows
        )
