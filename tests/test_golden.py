"""Golden records: every ``RootEstimate`` field over the test corpus.

``dominant_root`` runs on the 100-entry corpus, ``root_via_shift`` on it
under each of ``SHIFTS``, and ``enumerate_real_roots`` on its all-real
sub-corpus and on ``high_degree()``, each at 12 and 30 digits.  The
corpus stops at degree 4; the high-degree calls reach degree 30, where
an extraction round's first row holds a large ``K^(m-1)``.  The records are
stored one call a line in ``tests/data/``, so a change that moves a result
shows in the diff of the line that names its call.  A change meant to
move results rewrites them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from seqroots import (
    AffineShift,
    DriverOptions,
    MonicIntPolynomial,
    RootEstimate,
    dominant_root,
    enumerate_real_roots,
    make_polynomial,
    root_via_shift,
)

from conftest import build_corpus, chebyshev

DATA = Path(__file__).resolve().parent / "data"
DIGITS = (12, 30)
#: Shifts that make a smaller root dominate: most of these runs are slow
#: enough to be handed over to the extraction.
SHIFTS = ((-2, 1), (-4, 1))
ENTRIES = {
    "dominant_root": (dominant_root, "corpus"),
    "root_via_shift": (root_via_shift, "corpus"),
    "enumerate_real_roots": (enumerate_real_roots, "simple_real_corpus"),
    "enumerate_high_degree": (enumerate_real_roots, "high_degree"),
}


def high_degree() -> list[MonicIntPolynomial]:
    """Chebyshev at degree 20 and 30, Mignotte's ``x^10-2(100x-1)^2`` with
    its close pair, and the degree-30 draw of ``random.Random(60)``."""
    rng = random.Random(60)
    drawn = [1] + [rng.randint(-9, 9) for _ in range(30)]
    return [
        chebyshev(20),
        chebyshev(30),
        make_polynomial([1] + [0] * 7 + [-20000, 400, -2]),
        make_polynomial(drawn),
    ]


def polys_for(source: str, corpus: list) -> list[MonicIntPolynomial]:
    if source == "high_degree":
        return high_degree()
    if source == "simple_real_corpus":
        corpus = [e for e in corpus if e.all_real_separated]
    return [e.poly for e in corpus]


def record(est: RootEstimate) -> dict:
    return {
        "value": str(est.value),
        "decimal_digits": est.decimal_digits,
        "iterations": est.iterations,
        "status": est.status.value,
        "shift": [est.shift_used.a, est.shift_used.b],
        "estimator": est.estimator,
        "peak_bits": est.peak_bits,
    }


def records(entry: str, polys: list) -> list[dict]:
    """One line per call: the call first, then what it returned."""
    fn = ENTRIES[entry][0]
    shifts = SHIFTS if entry == "root_via_shift" else (None,)
    out = []
    for digits in DIGITS:
        opts = DriverOptions(target_digits=digits)
        for shift in shifts:
            for poly in polys:
                if shift is None:
                    result = fn(poly, opts)
                    call = f"{fn.__name__}({poly}, digits={digits})"
                else:
                    result = fn(poly, AffineShift(*shift), opts)
                    call = f"{fn.__name__}({poly}, shift={shift}, digits={digits})"
                estimates = result if isinstance(result, list) else [result]
                out.append({"call": call, "estimates": [record(e) for e in estimates]})
    return out


def path(entry: str) -> Path:
    return DATA / f"golden_{entry}.jsonl"


def load(entry: str) -> list[dict]:
    with path(entry).open() as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_field_matches_the_stored_records(entry, corpus):
    polys = polys_for(ENTRIES[entry][1], corpus)
    got = records(entry, polys)
    stored = load(entry)
    assert [r["call"] for r in got] == [r["call"] for r in stored]
    moved = [g["call"] for g, s in zip(got, stored) if g != s]
    assert not moved, f"{len(moved)} calls moved, first: {moved[:5]}"


def write() -> None:
    corpus = build_corpus()
    DATA.mkdir(exist_ok=True)
    for entry in ENTRIES:
        with path(entry).open("w") as fh:
            for line in records(entry, polys_for(ENTRIES[entry][1], corpus)):
                fh.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    write()
