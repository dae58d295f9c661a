"""Golden records: every ``RootEstimate`` field over the test corpus.

``dominant_root`` runs on the 100-entry corpus, ``root_via_shift`` on it
under each of ``SHIFTS``, and ``enumerate_real_roots`` on its all-real
sub-corpus, each at 12 and 30 digits.  The records are
stored one call a line in ``tests/data/``, so a change that moves a result
shows in the diff of the line that names its call.  A change meant to
move results rewrites them with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from seqroots import (
    AffineShift,
    DriverOptions,
    RootEstimate,
    dominant_root,
    enumerate_real_roots,
    root_via_shift,
)

DATA = Path(__file__).resolve().parent / "data"
DIGITS = (12, 30)
#: Shifts that make a smaller root dominate: most of these runs are slow
#: enough to be handed over to the extraction.
SHIFTS = ((-2, 1), (-4, 1))
ENTRIES = {
    "dominant_root": (dominant_root, "corpus"),
    "root_via_shift": (root_via_shift, "corpus"),
    "enumerate_real_roots": (enumerate_real_roots, "simple_real_corpus"),
}


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
                    call = f"{entry}({poly}, digits={digits})"
                else:
                    result = fn(poly, AffineShift(*shift), opts)
                    call = f"{entry}({poly}, shift={shift}, digits={digits})"
                estimates = result if isinstance(result, list) else [result]
                out.append({"call": call, "estimates": [record(e) for e in estimates]})
    return out


def path(entry: str) -> Path:
    return DATA / f"golden_{entry}.jsonl"


def load(entry: str) -> list[dict]:
    with path(entry).open() as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_field_matches_the_stored_records(entry, request):
    polys = [e.poly for e in request.getfixturevalue(ENTRIES[entry][1])]
    got = records(entry, polys)
    stored = load(entry)
    assert [r["call"] for r in got] == [r["call"] for r in stored]
    moved = [g["call"] for g, s in zip(got, stored) if g != s]
    assert not moved, f"{len(moved)} calls moved, first: {moved[:5]}"


def write() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from conftest import build_corpus

    corpus = build_corpus()
    polys = {
        "corpus": [e.poly for e in corpus],
        "simple_real_corpus": [e.poly for e in corpus if e.all_real_separated],
    }
    DATA.mkdir(exist_ok=True)
    for entry in ENTRIES:
        with path(entry).open("w") as fh:
            for line in records(entry, polys[ENTRIES[entry][1]]):
                fh.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    write()
