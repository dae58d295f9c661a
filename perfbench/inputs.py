"""Workload inputs for the seqroots benchmark, and their reference roots.

Each workload is a list of calls.  A call names one public entry point of
``seqroots`` (``dominant_root``, ``root_via_shift`` or
``enumerate_real_roots``), the polynomial as a coefficient list with its
leading 1, an optional affine shift ``(a, b)``, the target digit count, and
the reference: the real root the call should find (or, for enumeration,
every distinct real root with its multiplicity) as decimal strings of
``digits + 10`` significant digits.

Reference roots come from ``sympy``'s exact real-root isolation evaluated at
high precision; ``mpmath.polyroots`` supplies the complex root moduli that
decide dominance.  Neither ``seqroots`` nor its tests are consulted, so no
change to the program can change a workload.

Generating a corpus takes tens of seconds, so the inputs of the default
corpus seeds are stored under ``data/``.  Remake them with::

    python3 perfbench/inputs.py [--workload dominant-corpus]

``data/`` only ever holds the default corpus seeds; ``run.py --corpus-seed``
generates another corpus, with its reference, under ``out/``.

``sympy`` and ``mpmath`` are imported only while generating; loading stored
inputs and building the calls needs the standard library and ``seqroots``.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

DATA_DIR = Path(__file__).resolve().parent / "data"

WORKLOADS = ("dominant-corpus", "enumerate-corpus", "digits-ladder")

#: Corpus seed of ``dominant-corpus`` (arXiv math/0001112).
DOMINANT_SEED = 1112
DOMINANT_SIZE = 400
DOMINANT_DEGREES = (2, 6)
#: Seed, size and degrees of the test corpus drawn in ``tests/conftest.py``.
ENUMERATE_SEED = 20260823
ENUMERATE_SIZE = 100
ENUMERATE_DEGREES = (2, 4)
COEFF_RANGE = (-9, 9)
GAP_MIN = 1.05
DEFAULT_DIGITS = 12
#: Search depth for the shift ``(a, 1)``, ``a < 0``, that makes the smallest
#: real root dominant.
SHIFT_SEARCH = 200

#: Members of ROADMAP's hard set that fail in well under a second today.
HARD_CASES = ((1, -2, 1), (1, -6, 11, -6))

#: ``(coefficients, shift or None)``; each runs at every level of DIGITS_LADDER.
LADDER_CASES = (
    ((1, 0, 0, -2), (1, 1)),
    ((1, -1, -1), None),
    ((1, 0, -2), (1, 1)),
    ((1, 0, -3, 1), (2, 1)),
    ((1, 0, 0, 0, -5), (1, 1)),
)
#: A sqrt(2) ladder from 15 to 170 digits: eight levels, so that the five
#: cases make 40 calls, enough for a tail with ten calls beyond it.  A 240
#: rung would double the pass (x^3-3x+1 alone takes about 1.2 s there) and
#: halve the samples of each call in a run.
DIGITS_LADDER = (15, 20, 30, 42, 60, 85, 120, 170)


def default_seed(workload: str) -> Optional[int]:
    return {
        "dominant-corpus": DOMINANT_SEED,
        "enumerate-corpus": ENUMERATE_SEED,
        "digits-ladder": None,
    }[workload]


def data_path(workload: str) -> Path:
    return DATA_DIR / f"{workload}.json"


# -- reference ----------------------------------------------------------------


class _Reference:
    """Roots of one polynomial: complex ones from mpmath for dominance,
    exact real ones from sympy for the reported values."""

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        import mpmath
        import sympy

        self._sympy = sympy
        self.coeffs = coeffs
        poly = sympy.Poly(coeffs, sympy.Symbol("x"))
        real = poly.real_roots()
        self.real = sorted(set(real), key=lambda r: sympy.N(r, 30))
        self.mult = [real.count(r) for r in self.real]
        with mpmath.workdps(40):
            self.complex = [
                mpmath.mpc(z) for z in mpmath.polyroots(coeffs, maxsteps=400, extraprec=80)
            ]

    def value(self, root: Any, digits: int) -> str:
        return str(self._sympy.N(root, digits + 10))

    def dominance(self, a: int, b: int) -> tuple[Optional[Any], float]:
        """The real root whose image ``a + b*r`` has strictly largest modulus,
        and the modulus ratio of the two largest images (``inf`` for one root)."""
        images = sorted(
            ((abs(a + b * z), z) for z in self.complex), key=lambda t: t[0], reverse=True
        )
        if len(images) < 2 or images[1][0] == 0:
            gap = float("inf")
        else:
            gap = float(images[0][0] / images[1][0])
        top = images[0][1]
        if gap <= 1 or abs(top.imag) > 1e-20 or not self.real:
            return None, gap
        nearest = min(self.real, key=lambda r: abs(float(self._sympy.N(r, 30)) - float(top.real)))
        return nearest, gap

    def is_integer_root(self, root: Any) -> bool:
        return bool(getattr(root, "is_Integer", False))


def _call(
    entry: str,
    coeffs: tuple[int, ...],
    shift: Optional[tuple[int, int]],
    digits: int,
    roots: list[str],
    mult: list[int],
    gap: Optional[float] = None,
) -> dict:
    call = {
        "entry": entry,
        "coeffs": list(coeffs),
        "shift": list(shift) if shift else None,
        "digits": digits,
        "roots": roots,
        "mult": mult,
    }
    if gap is not None:
        call["gap"] = round(gap, 6)
    return call


def _draw(rng: random.Random, degrees: tuple[int, int]) -> Optional[tuple[int, ...]]:
    degree = rng.randint(*degrees)
    coeffs = [rng.randint(*COEFF_RANGE) for _ in range(degree)]
    if coeffs[-1] == 0:
        return None
    return (1, *coeffs)


def dominant_corpus(seed: int = DOMINANT_SEED, count: int = DOMINANT_SIZE) -> list[dict]:
    """``count`` polynomials, each with a ``dominant_root`` call, and a
    ``root_via_shift`` call on the smallest real root where one qualifies.

    Left out: a dominance gap below GAP_MIN, and an integer dominant root
    (``dominant_root`` never settles on one; see the README)."""
    rng = random.Random(seed)
    calls: list[dict] = []
    drawn = 0
    while drawn < count:
        coeffs = _draw(rng, DOMINANT_DEGREES)
        if coeffs is None:
            continue
        ref = _Reference(coeffs)
        root, gap = ref.dominance(0, 1)
        if root is None or gap < GAP_MIN or ref.is_integer_root(root):
            continue
        drawn += 1
        calls.append(
            _call("dominant_root", coeffs, None, DEFAULT_DIGITS,
                  [ref.value(root, DEFAULT_DIGITS)], [1], gap)
        )
        if len(ref.real) < 2:
            continue
        smallest = ref.real[0]
        for a in range(-1, -SHIFT_SEARCH - 1, -1):
            target, gap = ref.dominance(a, 1)
            if target == smallest and gap >= GAP_MIN:
                calls.append(
                    _call("root_via_shift", coeffs, (a, 1), DEFAULT_DIGITS,
                          [ref.value(smallest, DEFAULT_DIGITS)], [1], gap)
                )
                break
    return calls


def _enumeration(coeffs: tuple[int, ...], digits: int) -> dict:
    ref = _Reference(coeffs)
    return _call(
        "enumerate_real_roots", coeffs, None, digits,
        [ref.value(r, digits) for r in ref.real], ref.mult,
    )


def enumerate_corpus(seed: int = ENUMERATE_SEED, count: int = ENUMERATE_SIZE) -> list[dict]:
    """The test corpus (degree 2-4, dominance gap at least GAP_MIN), then
    HARD_CASES; one ``enumerate_real_roots`` call each."""
    rng = random.Random(seed)
    calls: list[dict] = []
    while len(calls) < count:
        coeffs = _draw(rng, ENUMERATE_DEGREES)
        if coeffs is None:
            continue
        _, gap = _Reference(coeffs).dominance(0, 1)
        if gap < GAP_MIN:
            continue
        calls.append(_enumeration(coeffs, DEFAULT_DIGITS))
    calls.extend(_enumeration(coeffs, DEFAULT_DIGITS) for coeffs in HARD_CASES)
    return calls


def digits_ladder() -> list[dict]:
    """Every LADDER_CASES entry at every level of DIGITS_LADDER."""
    calls = []
    for coeffs, shift in LADDER_CASES:
        ref = _Reference(coeffs)
        a, b = shift if shift else (0, 1)
        root, gap = ref.dominance(a, b)
        entry = "root_via_shift" if shift else "dominant_root"
        for digits in DIGITS_LADDER:
            calls.append(_call(entry, coeffs, shift, digits, [ref.value(root, digits)], [1], gap))
    return calls


def generate(workload: str, seed: Optional[int] = None) -> dict:
    """Inputs and reference of ``workload`` for corpus ``seed`` (its default
    if None; ``digits-ladder`` has fixed inputs and takes no seed)."""
    if seed is None:
        seed = default_seed(workload)
    if workload == "dominant-corpus":
        calls = dominant_corpus(seed)
    elif workload == "enumerate-corpus":
        calls = enumerate_corpus(seed)
    elif workload == "digits-ladder":
        seed = None
        calls = digits_ladder()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "corpus_seed": seed, "calls": calls}


# -- loading --------------------------------------------------------------------


def load(path: Path | str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save(spec: dict, path: Path | str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
        fh.write("\n")


@dataclass(frozen=True)
class Call:
    """One prepared entry-point call."""

    entry: str
    poly: Any
    shift: Any
    opts: Any


def build_calls(spec: dict) -> list[Call]:
    """Polynomials, shifts and options of every call, built with ``seqroots``."""
    import seqroots

    options: dict[int, Any] = {}
    calls = []
    for c in spec["calls"]:
        digits = c["digits"]
        if digits not in options:
            options[digits] = seqroots.DriverOptions(target_digits=digits)
        shift = seqroots.AffineShift(*c["shift"]) if c["shift"] else None
        calls.append(
            Call(c["entry"], seqroots.make_polynomial(c["coeffs"]), shift, options[digits])
        )
    return calls


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the stored benchmark inputs from their default corpus seeds.")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to regenerate (repeatable; default all)")
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        spec = generate(workload)
        path = data_path(workload)
        save(spec, path)
        print(f"{workload}: {len(spec['calls'])} calls -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
