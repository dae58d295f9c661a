"""Judge one call's result against its reference roots.

A call fails when its status is not ``CONVERGED``, when a reported root is
off by more than one unit in its last reported significant digit, or, for
enumeration, when the reported roots do not match the distinct reference
real roots one to one.

Every failure gets a kind.  A known kind is given only when the failure has
the shape of its fault; the README maps kinds to faults.  The shapes rest on
the driver's acceptance test, a relative residual below 10^-(D//2): a value
that passes it lies within about 10^-(D//2) (relative) of a simple root,
and within 10^-(D//2m) of a root of multiplicity m.  Anything else, such as
a value near no root, or a simple root left out, gets a kind that makes the
run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Optional, Sequence

import inputs

#: Every value near a root, but some off by more than one unit; fault (a).
DIGITS = "digits"
#: A tie reported on a call whose reference gap shows a dominant root; fault (b).
TIE = "tie"
#: Every value near a root, and some root reported more than once; fault (c).
DUPLICATE = "duplicate"
#: Only roots of multiplicity above one left out or reported off; fault (d).
MULTIPLE = "multiple-root"
#: No known fault explains these; any of them makes a run incorrect.
MISSING = "missing"  # a simple root left out
STRAY = "stray"  # a value near no reference root
STATUS = "status"
ERROR = "error"

KNOWN_KINDS = (DIGITS, TIE, DUPLICATE, MULTIPLE)


@dataclass(frozen=True)
class Verdict:
    kind: Optional[str]  # None when the call passed
    roots_correct: int  # reported roots matched one to one to reference roots

    @property
    def ok(self) -> bool:
        return self.kind is None


def within_one_unit(reported: Decimal, reference: Decimal, digits: int) -> bool:
    """``reported``, rendered at ``digits`` significant digits, is at most one
    unit in its last digit away from ``reference``."""
    if reported == 0:
        return reference == 0
    unit = Decimal(1).scaleb(reported.adjusted() - digits + 1)
    return abs(reported - reference) <= unit


def near(value: Decimal, reference: Decimal, digits: int, mult: int = 1) -> bool:
    """``value`` is as close to ``reference``, a root of multiplicity
    ``mult``, as the residual test at ``digits // 2`` digits lets it be."""
    exponent = max(1, digits // 2) // mult
    return abs(value - reference) <= max(Decimal(1), abs(reference)).scaleb(-exponent)


def _pair(
    values: Sequence[Decimal], refs: Sequence[int], close: Callable[[Decimal, int], bool]
) -> tuple[list[Decimal], list[int]]:
    """Pair each reference root (an index, in ascending order) with the first
    free value ``close`` to it; return the values and the roots left unpaired."""
    free = list(values)
    unpaired = []
    for j in refs:
        k = next((k for k, v in enumerate(free) if close(v, j)), None)
        if k is None:
            unpaired.append(j)
        else:
            del free[k]
    return free, unpaired


def judge(call: dict, result: Any) -> Verdict:
    """Verdict on ``result`` (a RootEstimate, a list of them for enumeration,
    or the exception the call raised) for stored ``call``."""
    if isinstance(result, Exception):
        return Verdict(ERROR, 0)
    enumeration = call["entry"] == "enumerate_real_roots"
    estimates = list(result) if enumeration else [result]
    digits = call["digits"]
    refs = [Decimal(r) for r in call["roots"]]
    mult = call["mult"]
    converged = [e for e in estimates if e.status.name == "CONVERGED"]
    values = sorted(Decimal(e.decimal(digits)) for e in converged)
    every = range(len(refs))
    extra, lost = _pair(values, every, lambda v, j: within_one_unit(v, refs[j], digits))
    matched = len(refs) - len(lost)
    if len(converged) < len(estimates):
        tie = (not enumeration and estimates[0].status.name == "TIE_DETECTED"
               and call.get("gap", 0) >= inputs.GAP_MIN)
        return Verdict(TIE if tie else STATUS, matched)
    if not extra and not lost:
        return Verdict(None, matched)

    def close(v: Decimal, j: int) -> bool:
        return near(v, refs[j], digits, mult[j])

    # a value off in its last digits stands for the lost root it is near
    extra, dropped = _pair(extra, lost, close)
    if any(not any(close(v, j) for j in every) for v in extra):
        return Verdict(STRAY, matched)
    if any(mult[j] == 1 for j in dropped):
        return Verdict(MISSING, matched)
    if any(mult[j] > 1 for j in lost):
        return Verdict(MULTIPLE, matched)
    if extra:
        return Verdict(DUPLICATE, matched)
    return Verdict(DIGITS, matched)


def signature(result: Any) -> Any:
    """What a call returned, reduced to compare two runs: statuses and exact values."""
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    if isinstance(result, list):
        return tuple(signature(e) for e in result)
    return (result.status.name, result.value, result.decimal_digits, result.iterations)
