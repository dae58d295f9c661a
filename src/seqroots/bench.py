"""Wall-clock comparison of the exact pipeline against the float reference.

Each case is timed as a median over several runs: once driving the integer
recurrence to the requested digit count, once running the floating-point
simultaneous iteration plus a Newton polish of the targeted root.  The
report states times, iteration counts, the peak integer bit width the
exact side touched and the exact run's status (a run that did not converge
shows ``-`` for its value); it draws no conclusion about which side should
win.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, TypeVar

from .driver import DriverOptions, RootEstimate, dominant_root, root_via_shift
from .oracle import durand_kerner, newton_refine
from .poly import AffineShift, MonicIntPolynomial, make_polynomial

T = TypeVar("T")


@dataclass(frozen=True)
class BenchCase:
    label: str
    poly: MonicIntPolynomial
    shift: Optional[AffineShift] = None


@dataclass(frozen=True)
class BenchRow:
    label: str
    digits: int
    exact_seconds: float
    exact_iterations: int
    exact_peak_bits: int
    exact_value: str
    exact_status: str
    float_seconds: float
    float_iterations: int
    float_value: str


def builtin_cases() -> tuple[BenchCase, ...]:
    """Three small cases: a dominant-root run and two shifted extractions."""
    quadratic = make_polynomial([1, 2, -1])
    cubic = make_polynomial([1, 0, 0, -2])
    return (
        BenchCase("x^2+2x-1", quadratic),
        BenchCase("x^2+2x-1 shift 2,1", quadratic, AffineShift(2, 1)),
        BenchCase("x^3-2 shift 1,1", cubic, AffineShift(1, 1)),
    )


def _median_time(fn: Callable[[], T], runs: int) -> tuple[float, T]:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _run_exact(case: BenchCase, opts: DriverOptions) -> RootEstimate:
    if case.shift is None:
        return dominant_root(case.poly, opts)
    return root_via_shift(case.poly, case.shift, opts)


def _pick_target(case: BenchCase, roots: Iterable[complex]) -> float:
    """The root this case is after: largest modulus, after the shift if any."""
    if case.shift is None:
        z = max(roots, key=abs)
    else:
        a, b = case.shift.a, case.shift.b
        z = max(roots, key=lambda w: abs(a + b * w))
    return z.real


def _run_float(case: BenchCase, digits: int) -> tuple[int, float]:
    rs = durand_kerner(case.poly)
    x = _pick_target(case, rs.roots)
    x, steps = newton_refine(case.poly, x, digits)
    return rs.iterations + steps, x


def run_bench(
    cases: Iterable[BenchCase],
    digits: int = 12,
    runs: int = 5,
) -> list[BenchRow]:
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    opts = DriverOptions(target_digits=digits)
    rows = []
    for case in cases:
        exact_seconds, est = _median_time(lambda: _run_exact(case, opts), runs)
        float_seconds, (float_iters, x) = _median_time(
            lambda: _run_float(case, digits), runs
        )
        shown = min(digits, 17)
        rows.append(
            BenchRow(
                label=case.label,
                digits=digits,
                exact_seconds=exact_seconds,
                exact_iterations=est.iterations,
                exact_peak_bits=est.peak_bits,
                exact_value=est.decimal(shown) if est.converged else "-",
                exact_status=est.status.value,
                float_seconds=float_seconds,
                float_iterations=float_iters,
                float_value=f"{x:.{shown}g}",
            )
        )
    return rows


_COLUMNS = (
    ("case", "label"),
    ("digits", "digits"),
    ("exact s", "exact_seconds"),
    ("exact iters", "exact_iterations"),
    ("peak bits", "exact_peak_bits"),
    ("exact value", "exact_value"),
    ("exact status", "exact_status"),
    ("float s", "float_seconds"),
    ("float iters", "float_iterations"),
    ("float value", "float_value"),
)


def _cell(row: Mapping[str, object], key: str) -> str:
    value = row[key]
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def format_report(rows: Iterable[Mapping[str, object]]) -> str:
    """Fixed-width comparison table, derived purely from row mappings."""
    rows = list(rows)
    widths = []
    for header, key in _COLUMNS:
        cells = [_cell(row, key) for row in rows]
        widths.append(max(len(header), *(len(c) for c in cells)) if cells else len(header))
    lines = [
        "  ".join(h.ljust(w) for (h, _), w in zip(_COLUMNS, widths)).rstrip()
    ]
    for row in rows:
        lines.append(
            "  ".join(
                _cell(row, key).ljust(w) for (_, key), w in zip(_COLUMNS, widths)
            ).rstrip()
        )
    return "\n".join(lines)
