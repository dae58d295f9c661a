"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run ``pytest -s tests/test_acceptance.py`` to see the lines as they print;
without ``-s`` pytest shows captured output only for failing tests.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

from test_sequences import GOLDEN_CUBIC, dense_matrix, dense_product

from seqroots import (
    AffineShift,
    RootStatus,
    SequenceFamily,
    dominant_root,
    enumerate_real_roots,
    make_polynomial,
    root_via_shift,
)
from seqroots.bench import builtin_cases, format_report, run_bench
from seqroots.poly import shift_scale
from seqroots.render import decimal_string

QUADRATIC = make_polynomial([1, 2, -1])
CUBIC = make_polynomial([1, 0, 0, -2])


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {title}")
        raise
    print(f"PASS criterion {number}: {title} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_quadratic_table():
    with criterion(1, "quadratic table exact; ratio at j=6 renders -2.4143"):
        fam = SequenceFamily(QUADRATIC, seed=[1, 0], keep_history=True)
        fam.run_to(6)
        assert [fam.term(1, j) for j in range(7)] == [1, -2, 5, -12, 29, -70, 169]
        assert [fam.term(2, j) for j in range(7)] == [0, 1, -2, 5, -12, 29, -70]
        ratio = fam.cross_ratio(1, 6)
        assert ratio == Fraction(169, -70)
        assert decimal_string(ratio, 5) == "-2.4143"


def test_criterion_2_shifted_quadratic_table():
    with criterion(2, "shifted quadratic table exact; ratio at j=7 renders 0.41420"):
        fam = SequenceFamily(QUADRATIC, [1, 0], shift=AffineShift(2, 1), keep_history=True)
        assert shift_scale(fam.poly, fam.shift).with_leading() == (1, -2, -1)
        fam.run_to(7)
        assert [fam.term(2, j) for j in range(8)] == [0, 1, 2, 5, 12, 29, 70, 169]
        assert decimal_string(fam.cross_ratio(1, 7), 5) == "0.41420"


def test_criterion_3_shifted_cubic_table():
    with criterion(3, "shifted cubic table exact for 26 rows; late ratios 1.259921"):
        fam = SequenceFamily(CUBIC, [1, 1, 0], shift=AffineShift(1, 1), keep_history=True)
        assert shift_scale(fam.poly, fam.shift).with_leading() == (1, -3, 3, -3)
        fam.run_to(25)
        for j, s1, s2, s3 in GOLDEN_CUBIC:
            assert fam.vector(j) == (s1, s2, s3), f"row {j}"
        assert fam.vector(25) == (536171481, 425559582, 337766841)
        for j in (22, 23, 24, 25):
            assert decimal_string(fam.cross_ratio(1, j), 7) == "1.259921"
            assert decimal_string(fam.cross_ratio(2, j), 7) == "1.259921"


def test_criterion_4_quadratic_roots():
    with criterion(4, "quadratic roots within 1e-10 (dominant and shifted), under 1 s"):
        started = time.perf_counter()
        est = dominant_root(QUADRATIC)
        assert est.converged
        assert abs(float(est.value) - (-1 - math.sqrt(2))) < 1e-10
        est = root_via_shift(QUADRATIC, AffineShift(2, 1))
        assert est.converged
        assert abs(float(est.value) - (-1 + math.sqrt(2))) < 1e-10
        assert time.perf_counter() - started < 1.0


def test_criterion_5_cube_root_and_tie():
    with criterion(5, "cube root via shift within 1e-9; unshifted run ties, under 1 s"):
        started = time.perf_counter()
        est = root_via_shift(CUBIC, AffineShift(1, 1))
        assert est.converged
        assert abs(float(est.value) - 2 ** (1 / 3)) < 1e-9
        tied = dominant_root(CUBIC)
        assert tied.status is RootStatus.TIE_DETECTED
        assert time.perf_counter() - started < 1.0


def test_criterion_6_corpus_agreement(corpus, simple_real_corpus):
    with criterion(6, "corpus: dominant roots to 1e-8, enumeration complete to 1e-6, under 60 s"):
        started = time.perf_counter()
        assert len(corpus) == 100
        for entry in corpus:
            est = dominant_root(entry.poly)
            assert est.converged, entry.poly
            assert est.iterations <= 10000
            assert abs(float(est.value) - entry.dominant) < 1e-8, entry.poly
        for entry in simple_real_corpus:
            got = [float(e.value) for e in enumerate_real_roots(entry.poly)]
            want = entry.roots.real_roots()
            assert len(got) == len(want), entry.poly
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-6, entry.poly
        assert time.perf_counter() - started < 60.0


def test_criterion_7_recurrence_equals_matrix_powers(corpus):
    with criterion(7, "recurrence equals matrix powers for 200 steps, under 30 s"):
        started = time.perf_counter()
        for entry in corpus:
            fam = SequenceFamily(entry.poly, keep_history=True)
            fam.run_to(200)
            rows = dense_matrix(entry.poly)
            vec = fam.vector(0)
            for j in range(201):
                assert fam.vector(j) == vec, (entry.poly, j)
                vec = dense_product(rows, vec)
        assert time.perf_counter() - started < 30.0


def test_criterion_8_benchmark_report():
    with criterion(8, "benchmark report well-formed; exact side reaches 12 digits under 1 s per case"):
        rows = run_bench(builtin_cases(), digits=12, runs=5)
        assert len(rows) == 3
        for row in rows:
            assert row.digits == 12
            assert row.exact_iterations > 0
            assert row.exact_peak_bits > 0
            assert row.float_iterations > 0
            assert len(row.exact_value) >= 12
            assert row.exact_seconds < 1.0
        report = format_report([asdict(row) for row in rows])
        lines = report.splitlines()
        assert len(lines) == 4
        assert "exact s" in lines[0] and "float s" in lines[0]
