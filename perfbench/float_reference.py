#!/usr/bin/env python3
"""The paper's comparison point: floating-point root finding on dominant-corpus.

For every ``dominant-corpus`` call this times ``seqroots.oracle``'s
Durand-Kerner iteration plus a Newton polish of the targeted root (the root
of largest modulus, or of largest image ``a + b*r`` under the call's shift),
and counts the results within one unit in the 12th significant digit of the
reference.  The figure is printed for the README only; it is not a
benchmark metric::

    python3 perfbench/float_reference.py
"""

from __future__ import annotations

import statistics
import sys
from decimal import Decimal
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checker  # noqa: E402
import inputs  # noqa: E402
from seqroots.oracle import durand_kerner, newton_refine  # noqa: E402

#: The figure is the median pass of this many.
PASSES = 5


def solve(call: inputs.Call) -> float:
    roots = durand_kerner(call.poly).roots
    a, b = (call.shift.a, call.shift.b) if call.shift else (0, 1)
    target = max(roots, key=lambda z: abs(a + b * z))
    x, _ = newton_refine(call.poly, target.real, call.opts.target_digits)
    return x


def main() -> int:
    spec = inputs.load(inputs.data_path("dominant-corpus"))
    calls = inputs.build_calls(spec)
    walls = []
    values: list[float] = []
    for _ in range(PASSES):
        start = perf_counter()
        values = [solve(call) for call in calls]
        walls.append(perf_counter() - start)
    within = sum(
        checker.within_one_unit(Decimal(f"{x:.11e}"), Decimal(c["roots"][0]), c["digits"])
        for x, c in zip(values, spec["calls"])
    )
    wall = statistics.median(walls)
    print(f"Durand-Kerner + Newton on dominant-corpus: {len(calls)} calls, "
          f"median pass {wall:.3f} s over {PASSES} passes, "
          f"{len(calls) / wall:.1f} calls/s, {within} of {len(calls)} within one unit at 12 digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
