"""The iteration matrix ``a*I + b*C`` and its exact matrix-vector product.

Golden matrices are read back column by column, as the products ``M e_k``
of the basis vectors, so each pins ``mat_vec`` as well as ``top``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_sequences import dense_matrix, dense_product

from seqroots import AffineShift, DimensionMismatchError, make_polynomial
from seqroots.companion import IterationMatrix, iteration_matrix, mat_vec
from seqroots.poly import shift_scale


def dense_by_products(c):
    """The dense rows of ``c``, from the products of the basis vectors."""
    m = len(c.top)
    cols = [mat_vec(c, tuple(int(i == k) for i in range(m))) for k in range(m)]
    return tuple(tuple(col[i] for col in cols) for i in range(m))


def cayley_hamilton_residual(p, c):
    """``p`` evaluated at the matrix ``c``, exactly: the zero matrix when
    ``p`` is the characteristic polynomial of ``c``.  Each column ``p(c) e_k``
    is built by Horner's scheme from ``mat_vec`` products alone, so no
    matrix power is formed."""
    m = len(c.top)
    cols = []
    for k in range(m):
        basis = tuple(int(i == k) for i in range(m))
        acc = basis
        for a in p.coeffs:
            acc = tuple(x + a * e for x, e in zip(mat_vec(c, acc), basis))
        cols.append(acc)
    return tuple(tuple(col[i] for col in cols) for i in range(m))


class TestCompanionOf:
    def test_quadratic_layout(self):
        c = iteration_matrix(make_polynomial([1, 2, -1]))
        assert c == IterationMatrix((-2, 1), 0, 1)
        assert dense_by_products(c) == ((-2, 1), (1, 0))

    def test_cubic_layout(self):
        c = iteration_matrix(make_polynomial([1, 0, 0, -2]))
        assert c.top == (0, 0, 2)
        assert dense_by_products(c) == ((0, 0, 2), (1, 0, 0), (0, 1, 0))


class TestAffine:
    def test_shifted_cubic_matches_known_matrix(self):
        c = iteration_matrix(make_polynomial([1, 0, 0, -2]), AffineShift(1, 1))
        assert c == IterationMatrix((1, 0, 2), 1, 1)
        assert dense_by_products(c) == ((1, 0, 2), (1, 1, 0), (0, 1, 1))

    def test_shifted_quadratic_matches_known_matrix(self):
        c = iteration_matrix(make_polynomial([1, 2, -1]), AffineShift(2, 1))
        assert c.top == (0, 1)
        assert dense_by_products(c) == ((0, 1), (1, 2))

    def test_identity_leaves_matrix_alone(self):
        p = make_polynomial([1, 4, -3, 7])
        assert iteration_matrix(p, AffineShift(0, 1)) == iteration_matrix(p)
        assert iteration_matrix(p) == IterationMatrix((-4, 3, -7), 0, 1)

    def test_scale_multiplies_entries(self):
        c = iteration_matrix(make_polynomial([1, 2, -1]), AffineShift(0, 2))
        assert c.top == (-4, 2)
        assert dense_by_products(c) == ((-4, 2), (2, 0))


class TestMatVec:
    def test_known_product(self):
        c = iteration_matrix(make_polynomial([1, 2, -1]))
        assert mat_vec(c, (1, 0)) == (-2, 1)
        assert mat_vec(c, (-2, 1)) == (5, -2)

    def test_degree_one_product(self):
        # one component: only the dot product with ``top``, here 2 - 3
        c = iteration_matrix(make_polynomial([1, -3]), AffineShift(2, -1))
        assert c.top == (-1,)
        assert mat_vec(c, (5,)) == (-5,)

    def test_dimension_check(self):
        c = iteration_matrix(make_polynomial([1, 2, -1]))
        with pytest.raises(DimensionMismatchError):
            mat_vec(c, (1, 0, 0))


class TestCayleyHamilton:
    def test_companion_satisfies_own_polynomial(self, corpus):
        for entry in corpus[:20]:
            c = iteration_matrix(entry.poly)
            residual = cayley_hamilton_residual(entry.poly, c)
            assert all(all(x == 0 for x in row) for row in residual)

    def test_shifted_matrix_satisfies_shifted_polynomial(self):
        p = make_polynomial([1, 0, 0, -2])
        s = AffineShift(1, 1)
        residual = cayley_hamilton_residual(shift_scale(p, s), iteration_matrix(p, s))
        assert all(all(x == 0 for x in row) for row in residual)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
        a=st.integers(-9, 9),
        b=st.integers(-9, 9).filter(bool),
    )
    def test_every_shift_satisfies_its_shifted_polynomial(self, tail, a, b):
        p = make_polynomial([1, *tail])
        s = AffineShift(a, b)
        residual = cayley_hamilton_residual(shift_scale(p, s), iteration_matrix(p, s))
        assert not any(any(row) for row in residual)

    def test_wrong_polynomial_leaves_nonzero_residual(self):
        p = make_polynomial([1, 2, -1])
        other = make_polynomial([1, 0, -1])
        residual = cayley_hamilton_residual(other, iteration_matrix(p))
        assert any(any(x != 0 for x in row) for row in residual)


class TestAgainstEntrywiseDefinitions:
    """The structured product agrees with the dense matrix ``a*I + b*C``
    defined entry by entry."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        tail=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
        a=st.integers(-9, 9),
        b=st.integers(-9, 9).filter(bool),
        v=st.lists(st.integers(-(10**20), 10**20), min_size=9, max_size=9),
    )
    def test_companion_affine_and_product(self, tail, a, b, v):
        p, s = make_polynomial([1, *tail]), AffineShift(a, b)
        dense = dense_matrix(p, s)
        c = iteration_matrix(p, s)
        assert c == IterationMatrix(tuple(dense[0]), a, b)
        v = v[:len(tail)]
        assert mat_vec(c, v) == dense_product(dense, v)
