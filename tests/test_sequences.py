"""Sequence families: golden tables, recurrence/matrix equivalence.

The golden tables pin the exact integer state of three known runs row by
row, plus decimal renderings of the ratio columns where those are
unambiguous at the table's precision.
"""

from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqroots import (
    IDENTITY_SHIFT,
    AffineShift,
    DimensionMismatchError,
    OutOfRangeError,
    ZeroDenominatorError,
    SequenceFamily,
    ZeroSeedError,
    make_polynomial,
)
from seqroots.companion import IterationMatrix, mat_vec
from seqroots.poly import shift_scale
from seqroots.render import decimal_string

QUADRATIC = make_polynomial([1, 2, -1])
CUBIC = make_polynomial([1, 0, 0, -2])


def dense_matrix(poly, shift=IDENTITY_SHIFT):
    """``a*I + b*C`` entry by entry: the companion matrix ``C`` of ``poly``
    has first row ``-a_1, ..., -a_m`` and ones on the subdiagonal.  The
    reference for the family's products, independent of ``mat_vec``."""
    m = poly.degree

    def entry(i, k):
        c = -poly.coeffs[k] if i == 0 else int(k == i - 1)
        return shift.b * c + (shift.a if i == k else 0)

    return [[entry(i, k) for k in range(m)] for i in range(m)]


def dense_product(rows, v):
    return tuple(sum(e * x for e, x in zip(row, v)) for row in rows)


# x^2+2x-1, seed (1,0): columns S(1), S(2); ratio rendered at 5 digits
GOLDEN_PLAIN = [
    (0, 1, 0, "inf"),
    (1, -2, 1, "-2"),
    (2, 5, -2, "-2.5"),
    (3, -12, 5, "-2.4"),
    (4, 29, -12, "-2.4167"),
    (5, -70, 29, "-2.4138"),
    (6, 169, -70, "-2.4143"),
]

# same polynomial under shift (2,1), seed (1,0)
GOLDEN_SHIFTED = [
    (0, 1, 0, "inf"),
    (1, 0, 1, "0"),
    (2, 1, 2, "0.5"),
    (3, 2, 5, "0.4"),
    (4, 5, 12, "0.41667"),
    (5, 12, 29, "0.41379"),
    (6, 29, 70, "0.41429"),
    (7, 70, 169, "0.41420"),
]

# x^3-2 under shift (1,1), seed (1,1,0): S(1), S(2), S(3)
GOLDEN_CUBIC = [
    (0, 1, 1, 0),
    (1, 1, 2, 1),
    (2, 3, 3, 3),
    (3, 9, 6, 6),
    (4, 21, 15, 12),
    (5, 45, 36, 27),
    (6, 99, 81, 63),
    (7, 225, 180, 144),
    (8, 513, 405, 324),
    (9, 1161, 918, 729),
    (10, 2619, 2079, 1647),
    (11, 5913, 4698, 3726),
    (12, 13365, 10611, 8424),
    (13, 30213, 23976, 19035),
    (14, 68283, 54189, 43011),
    (15, 154305, 122472, 97200),
    (16, 348705, 276777, 219672),
    (17, 788049, 625482, 496449),
    (18, 1780947, 1413531, 1121931),
    (19, 4024809, 3194478, 2535462),
    (20, 9095733, 7219287, 5729940),
    (21, 20555613, 16315020, 12949227),
    (22, 46454067, 36870633, 29264247),
    (23, 104982561, 83324700, 66134880),
    (24, 237252321, 188307261, 149459580),
    (25, 536171481, 425559582, 337766841),
]

# spot-checks of ratio renderings at 7 digits on rows where the rendering
# is a full-length significand
GOLDEN_CUBIC_RATIOS = {
    6: ("1.222222", "1.285714"),
    9: ("1.264706", "1.259259"),
    10: ("1.259740", "1.262295"),
    16: ("1.259877", "1.259956"),
    22: ("1.259921", "1.259921"),
    23: ("1.259921", "1.259921"),
    24: ("1.259921", "1.259921"),
    25: ("1.259921", "1.259921"),
}


class TestGoldenPlainQuadratic:
    def test_terms_and_ratios(self):
        fam = SequenceFamily(QUADRATIC, keep_history=True)
        fam.run_to(6)
        for j, s1, s2, rendered in GOLDEN_PLAIN:
            assert fam.term(1, j) == s1
            assert fam.term(2, j) == s2
            if s2 == 0:
                with pytest.raises(ZeroDenominatorError):
                    fam.cross_ratio(1, j)
            else:
                assert decimal_string(fam.cross_ratio(1, j), 5) == rendered


class TestGoldenShiftedQuadratic:
    def test_shifted_polynomial(self):
        # the family keeps p and the shift; the iterated matrix has the
        # shifted polynomial as its characteristic polynomial
        fam = SequenceFamily(QUADRATIC, shift=AffineShift(2, 1))
        assert fam.poly is QUADRATIC and fam.shift == AffineShift(2, 1)
        assert shift_scale(fam.poly, fam.shift).with_leading() == (1, -2, -1)

    def test_iteration_matrix(self):
        fam = SequenceFamily(QUADRATIC, shift=AffineShift(2, 1))
        assert fam.matrix == IterationMatrix((0, 1), 2, 1)

    def test_terms_and_ratios(self):
        fam = SequenceFamily(QUADRATIC, shift=AffineShift(2, 1), keep_history=True)
        fam.run_to(7)
        for j, s1, s2, rendered in GOLDEN_SHIFTED:
            assert fam.term(1, j) == s1
            assert fam.term(2, j) == s2
            if s2 == 0:
                with pytest.raises(ZeroDenominatorError):
                    fam.cross_ratio(1, j)
            else:
                assert decimal_string(fam.cross_ratio(1, j), 5) == rendered


class TestGoldenShiftedCubic:
    def test_all_rows_exact(self):
        fam = SequenceFamily(CUBIC, [1, 1, 0], shift=AffineShift(1, 1), keep_history=True)
        fam.run_to(25)
        for j, s1, s2, s3 in GOLDEN_CUBIC:
            assert fam.vector(j) == (s1, s2, s3), f"row {j}"

    def test_ratio_renderings(self):
        fam = SequenceFamily(CUBIC, [1, 1, 0], shift=AffineShift(1, 1), keep_history=True)
        fam.run_to(25)
        for j, (r1, r2) in GOLDEN_CUBIC_RATIOS.items():
            assert decimal_string(fam.cross_ratio(1, j), 7) == r1
            assert decimal_string(fam.cross_ratio(2, j), 7) == r2

    def test_recurrence_continues_matrix_iteration(self):
        # every stored vector, the first window and every later step alike,
        # lies on the orbit of the iteration matrix
        fam = SequenceFamily(CUBIC, [1, 1, 0], shift=AffineShift(1, 1), keep_history=True)
        fam.run_to(25)
        rows = dense_matrix(CUBIC, AffineShift(1, 1))
        vec = (1, 1, 0)
        for j in range(26):
            assert fam.vector(j) == vec
            vec = dense_product(rows, vec)


class TestConstruction:
    def test_default_seed_is_first_basis_vector(self):
        fam = SequenceFamily(CUBIC)
        assert fam.window[0] == (1, 0, 0)

    def test_zero_seed_rejected(self):
        with pytest.raises(ZeroSeedError):
            SequenceFamily(QUADRATIC, seed=[0, 0])

    def test_non_integral_seed_rejected(self):
        # a float seed is refused, not truncated to (1, 0)
        with pytest.raises(TypeError):
            SequenceFamily(QUADRATIC, seed=[1.7, 0.2])

    def test_wrong_length_seed_rejected(self):
        with pytest.raises(DimensionMismatchError):
            SequenceFamily(QUADRATIC, seed=[1, 0, 0])

    def test_degree_one_family(self):
        fam = SequenceFamily(make_polynomial([1, -3]), keep_history=True)
        fam.run_to(20)
        assert [fam.term(1, j) for j in range(21)] == [3**j for j in range(21)]
        assert fam.successive_ratio(1) == 3

    def test_window_holds_degree_vectors(self):
        fam = SequenceFamily(CUBIC)
        assert len(fam.window) == 3
        fam.run_to(10)
        assert len(fam.window) == 3
        assert fam.j == 10


class TestConstructionCost:
    """The constructor stores the seed and m - 1 products: ``S_0`` through
    ``S_(m-1)``, and no product beyond the last one it keeps."""

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("shift", [None, AffineShift(-3, 2)])
    def test_degree_m_costs_m_minus_1_products(self, monkeypatch, degree, shift):
        import seqroots.sequences

        calls = []

        def counting(c, v):
            calls.append(v)
            return mat_vec(c, v)

        monkeypatch.setattr(seqroots.sequences, "mat_vec", counting)
        poly = make_polynomial([1] + [k - 2 for k in range(degree)])
        if shift is None:
            fam = SequenceFamily(poly)
        else:
            fam = SequenceFamily(poly, shift=shift)
        assert len(calls) == degree - 1
        assert fam.j == degree - 1 and len(fam.window) == degree
        assert list(fam.window[:-1]) == calls


class TestStartedFamily:
    """The private ``_start`` takes the vector at step ``m - 1`` as made: a
    shifted run starts the family of ``shift_scale(p, s)`` from the first
    components of its own start vectors."""

    def test_makes_no_start_products(self, monkeypatch):
        import seqroots.sequences

        s = AffineShift(-3, 2)
        shifted = SequenceFamily(CUBIC, shift=s)
        start = tuple(v[0] for v in reversed(shifted.window))
        assert start == (9, -3, 1)
        firsts = [shifted.step()[0] for _ in range(12)]
        calls = []

        def counting(c, v):
            calls.append(v)
            return mat_vec(c, v)

        monkeypatch.setattr(seqroots.sequences, "mat_vec", counting)
        fam = SequenceFamily(shift_scale(CUBIC, s), _start=start)
        assert calls == []
        assert (fam.j, fam.current, fam.window, fam.peak_bits) == (2, start, (start,), 4)
        # no step before m - 1 is stored, so no step ratio exists yet
        with pytest.raises(OutOfRangeError):
            fam.successive_ratio(1)
        assert [fam.step()[0] for _ in range(12)] == firsts
        assert len(calls) == 12
        assert fam.successive_ratio(1) == shifted.successive_ratio(1)


class TestStepCost:
    """A step is one ``mat_vec`` call through ``seqroots.sequences``: the
    benchmark's ``matvec`` layer counts products through that name, so a
    step that computed ``M v`` another way would drop out of it."""

    @pytest.mark.parametrize("shift", [IDENTITY_SHIFT, AffineShift(-3, 2)])
    def test_step_is_one_product(self, monkeypatch, shift):
        import seqroots.sequences

        fam = SequenceFamily(CUBIC, shift=shift)
        calls = []

        def counting(c, v):
            calls.append((c, v))
            return mat_vec(c, v)

        monkeypatch.setattr(seqroots.sequences, "mat_vec", counting)
        before = fam.current
        fam.step()
        assert calls == [(fam.matrix, before)]
        fam.run_to(10)
        assert len(calls) == 10 - 2


class TestAccessors:
    def test_term_index_bounds(self):
        fam = SequenceFamily(QUADRATIC, keep_history=True)
        with pytest.raises(OutOfRangeError):
            fam.term(0, 0)
        with pytest.raises(OutOfRangeError):
            fam.term(3, 0)

    def test_zero_denominator_names_the_current_step(self):
        fam = SequenceFamily(make_polynomial([1, 0, -1]))
        fam.step()
        with pytest.raises(ZeroDenominatorError, match="component 2 is zero at step 2"):
            fam.cross_ratio(1)

    def test_vector_outside_window_without_history(self):
        fam = SequenceFamily(QUADRATIC)
        fam.run_to(10)
        with pytest.raises(OutOfRangeError):
            fam.vector(0)
        assert fam.vector(10) == fam.current

    def test_successive_ratio_known_value(self):
        fam = SequenceFamily(QUADRATIC, shift=AffineShift(2, 1), keep_history=True)
        fam.run_to(7)
        assert fam.successive_ratio(2, 7) == Fraction(169, 70)


class TestRecurrenceEqualsMatrixPowers:
    def test_on_corpus_sample(self, corpus):
        for entry in corpus[:10]:
            fam = SequenceFamily(entry.poly, keep_history=True)
            fam.run_to(60)
            rows = dense_matrix(entry.poly)
            vec = fam.vector(0)
            for j in range(61):
                assert fam.vector(j) == vec
                vec = dense_product(rows, vec)


class TestShiftInvariantCrossRatios:
    def test_shift_changes_ratios_but_keeps_eigenvectors(self):
        # under a shift the successive ratio moves to a + b*r while the
        # cross ratio still estimates the original root r
        plain = SequenceFamily(QUADRATIC, keep_history=True)
        shifted = SequenceFamily(QUADRATIC, shift=AffineShift(2, 1), keep_history=True)
        plain.run_to(40)
        shifted.run_to(40)
        r_plain = plain.cross_ratio(1, 40)  # -> -1 - sqrt(2)
        r_shift = shifted.cross_ratio(1, 40)  # -> -1 + sqrt(2)
        assert abs(float(r_plain) - (-2.41421356237)) < 1e-9
        assert abs(float(r_shift) - 0.41421356237) < 1e-9
        step = shifted.successive_ratio(1, 40)  # -> 2 + r_shift
        assert abs(float(step) - (2 + 0.41421356237)) < 1e-9



def _matrix_orbit(rows, seed, steps):
    vecs = [tuple(seed)]
    for _ in range(steps):
        vecs.append(dense_product(rows, vecs[-1]))
    return vecs


def _recurrence_orbit(poly, rows, seed, steps):
    """Reference orbit: the first m vectors by dense products, then
    ``S_j = -a_1 S_(j-1) - ... - a_m S_(j-m)`` componentwise."""
    m = poly.degree
    vecs = _matrix_orbit(rows, seed, m - 1)
    for j in range(m, steps + 1):
        vecs.append(
            tuple(
                -sum(a * vecs[j - 1 - k][c] for k, a in enumerate(poly.coeffs))
                for c in range(m)
            )
        )
    return vecs


@st.composite
def _families(draw):
    m = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    seed = draw(
        st.lists(st.integers(-9, 9), min_size=m, max_size=m).filter(any)
    )
    shift = draw(
        st.one_of(
            st.just(IDENTITY_SHIFT),
            st.builds(
                AffineShift, st.integers(-5, 5), st.sampled_from([1, 2, 3, -1, -2, -3])
            ),
        )
    )
    return make_polynomial([1] + coeffs), shift, seed


class TestStepEqualsMatrixOrbit:
    """The step (one ``mat_vec``: a dot product and a shift) computes
    ``M v`` exactly, as the dense product defined entry by entry does."""

    STEPS = 60

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(family=_families(), keep_history=st.booleans())
    def test_vectors_and_peak_bits(self, family, keep_history):
        poly, shift, seed = family
        fam = SequenceFamily(poly, seed, shift=shift, keep_history=keep_history)
        rows = dense_matrix(poly, shift)
        orbit = _matrix_orbit(rows, seed, self.STEPS)
        assert orbit == _recurrence_orbit(shift_scale(poly, shift), rows, seed, self.STEPS)
        peaks = list(accumulate((max(c.bit_length() for c in v) for v in orbit), max))
        for j, expected in enumerate(orbit):
            fam.run_to(j)
            assert fam.vector(j) == expected, f"step {j}"
            # the constructor stores the first m vectors, so fam.j >= m - 1
            assert fam.peak_bits == peaks[fam.j], f"step {j}"
        if keep_history:
            assert [fam.vector(j) for j in range(self.STEPS + 1)] == orbit


class TestStartPeak:
    """The start products' running peak is the widest integer the
    constructor stores, from a given seed, the default seed or ``_start``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(family=_families(), keep_history=st.booleans(), started=st.booleans())
    @example(
        family=(make_polynomial([1, -3, -3]), AffineShift(-5, 2), [0, 1]),
        keep_history=False,
        started=False,
    )
    def test_start_peak_is_the_widest_stored_integer(self, family, keep_history, started):
        poly, shift, seed = family
        if started:
            # a vector at step m - 1, as a shifted run hands its x family
            made = [SequenceFamily(poly, keep_history=keep_history, _start=tuple(seed))]
        else:
            # the default seed (1, 0, ..., 0) lets a later component be the
            # widest, as (1, 2) for x^2 - 3x - 3 under -5 + 2x
            made = [SequenceFamily(poly, s, shift=shift, keep_history=keep_history)
                    for s in (seed, None)]
        for fam in made:
            # every vector the constructor stores, as the peak once was read
            assert fam.peak_bits == max(c.bit_length() for v in fam.window for c in v)


@st.composite
def _collapse_cases(draw):
    """A polynomial and shift, half of them ``(x-r)^m`` under ``a = -b*r``."""
    m = draw(st.integers(1, 6))
    b = draw(st.sampled_from([1, 2, 3, -1, -2, -3]))
    if draw(st.booleans()):
        r = draw(st.integers(-5, 5))
        full = [1]
        for _ in range(m):
            full = [c - r * d for c, d in zip(full + [0], [0] + full)]
        return make_polynomial(full), AffineShift(-b * r, b)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return make_polynomial([1] + coeffs), AffineShift(draw(st.integers(-5, 5)), b)


class TestSeedCollapse:
    """``e1`` is a cyclic vector of every ``a*I + b*C``, so the default seed
    reaches the zero vector only when that matrix is nilpotent, and then so
    does every other seed."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=_collapse_cases())
    def test_default_seed_collapses_iff_matrix_is_nilpotent(self, case):
        poly, shift = case
        m = poly.degree

        def collapses(seed):
            fam = SequenceFamily(poly, seed, shift=shift, keep_history=True)
            fam.run_to(m)
            return any(not any(fam.vector(j)) for j in range(m + 1))

        nilpotent = shift_scale(poly, shift).coeffs == (0,) * m
        assert collapses(None) == nilpotent
        if nilpotent:
            assert collapses((1,) * m)
