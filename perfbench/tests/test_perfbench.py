"""Tests of the benchmark itself: checker, tracer, inputs and the command.

Run from the root of the repository with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checker  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from seqroots import IDENTITY_SHIFT, RootEstimate, RootStatus  # noqa: E402

CBRT2 = "1.259921049894873164767"
SQRT2 = "1.414213562373095048802"


def estimate(value: str, status: RootStatus = RootStatus.CONVERGED) -> RootEstimate:
    return RootEstimate(Fraction(Decimal(value)), 12, 10, status, IDENTITY_SHIFT, "cross-ratio")


def single(root: str = CBRT2, gap: float = 1.26) -> dict:
    return {"entry": "dominant_root", "digits": 12, "roots": [root], "mult": [1], "gap": gap}


def enumeration(*roots: str, mult: tuple[int, ...] = ()) -> dict:
    return {"entry": "enumerate_real_roots", "digits": 12, "roots": list(roots),
            "mult": list(mult) or [1] * len(roots)}


# -- checker --------------------------------------------------------------------


def test_checker_accepts_a_root_one_unit_off():
    # 2^(1/3) renders as 1.25992104989; one unit up is still accepted
    assert checker.judge(single(), estimate("1.25992104989")).ok
    assert checker.judge(single(), estimate("1.25992104990")).ok


def test_checker_rejects_a_root_two_units_off():
    verdict = checker.judge(single(), estimate("1.25992104991"))
    assert verdict.kind == checker.DIGITS
    assert verdict.roots_correct == 0


def test_checker_rejects_a_duplicate():
    call = enumeration("-" + SQRT2, SQRT2)
    roots = [estimate("-1.41421356237"), estimate("1.41421356237"), estimate("1.41421356238")]
    verdict = checker.judge(call, roots)
    assert verdict.kind == checker.DUPLICATE
    assert verdict.roots_correct == 2


def test_checker_rejects_a_missing_root():
    call = enumeration("-" + SQRT2, SQRT2)
    verdict = checker.judge(call, [estimate("1.41421356237")])
    assert verdict.kind == checker.MISSING
    assert checker.judge(enumeration("1", mult=(2,)), []).kind == checker.MULTIPLE


def test_checker_rejects_a_status_other_than_converged():
    right = "1.25992104989"
    assert checker.judge(single(), estimate(right, RootStatus.TIE_DETECTED)).kind == checker.TIE
    # a tie is fault (b) only where the reference shows a dominant root
    assert (checker.judge(single(gap=1.01), estimate(right, RootStatus.TIE_DETECTED)).kind
            == checker.STATUS)
    call = enumeration("-" + SQRT2, SQRT2)
    tied = [estimate("-1.41421356237"), estimate("1.41421356237", RootStatus.TIE_DETECTED)]
    assert checker.judge(call, tied).kind == checker.STATUS
    assert (checker.judge(single(), estimate(right, RootStatus.MAX_ITERS_EXCEEDED)).kind
            == checker.STATUS)
    assert checker.judge(single(), ValueError("boom")).kind == checker.ERROR


def test_checker_gives_no_known_kind_to_a_wrong_root():
    # off by 1.0, or of the wrong sign: near no reference root
    assert checker.judge(single(), estimate("2.25992104989")).kind == checker.STRAY
    assert checker.judge(single(), estimate("-1.25992104989")).kind == checker.STRAY
    # a spurious extra root is not a duplicate
    call = enumeration("-" + SQRT2, SQRT2)
    roots = [estimate("-1.41421356237"), estimate("0.5"), estimate("1.41421356237")]
    assert checker.judge(call, roots).kind == checker.STRAY
    # the digits are off far beyond what the residual test lets through
    assert checker.judge(single(), estimate("1.2599")).kind == checker.STRAY
    assert checker.judge(single(), estimate("1.25992104")).kind == checker.DIGITS
    assert checker.KNOWN_KINDS == (checker.DIGITS, checker.TIE, checker.DUPLICATE, checker.MULTIPLE)


def test_checker_gives_no_known_kind_to_a_lost_simple_root():
    # x^4-200x^2+40x-2: 14.0414... three times, both roots near 0.1 missed
    call = enumeration("-14.24143834360043538600", "0.09930271986948489798798",
                       "0.1007172871338168905624", "14.04141833659713359745")
    big = "14.0414183366"
    roots = [estimate("-14.2414383436"), estimate(big), estimate(big), estimate(big)]
    assert checker.judge(call, roots).kind == checker.MISSING


def test_checker_blames_a_multiple_root_only_for_that_root():
    double = enumeration("-3", "1", mult=(1, 2))
    assert checker.judge(double, [estimate("-3")]).kind == checker.MULTIPLE
    assert checker.judge(double, [estimate("-3"), estimate("1.0001")]).kind == checker.MULTIPLE
    assert checker.judge(double, [estimate("1")]).kind == checker.MISSING
    assert checker.judge(double, [estimate("-3"), estimate("1.5")]).kind == checker.STRAY


def test_checker_compares_at_the_reported_digit_count():
    sqrt2 = str(Decimal(2).sqrt(Context(prec=40)))
    call = {"entry": "root_via_shift", "digits": 30, "roots": [sqrt2], "mult": [1]}
    assert checker.judge(call, estimate("1.41421356237309504880168872421")).ok
    assert not checker.judge(call, estimate("1.41421356237309504880168872423")).ok


def test_tail_has_ten_calls_beyond_it():
    assert run.tail_index(39) is None
    assert run.tail_index(40) == 29
    assert 102 - run.tail_index(102) - 1 == run.TAIL_BEYOND


# -- tracer ---------------------------------------------------------------------


def _sample_calls() -> list:
    """A cheap cross-section: dominant and shifted calls, low ladder rungs,
    and enumerations, so that every layer is entered."""
    picked = []
    for workload, keep in (
        ("dominant-corpus", lambda c: True),
        ("digits-ladder", lambda c: c["digits"] <= 42),
        ("enumerate-corpus", lambda c: len(c["coeffs"]) == 3),
    ):
        spec = inputs.load(inputs.data_path(workload))
        picked.extend([c for c in spec["calls"] if keep(c)][:12])
    return inputs.build_calls({"calls": picked})


def test_traced_and_untraced_passes_return_identical_results():
    calls = _sample_calls()
    order = list(range(len(calls)))
    plain = run.run_pass(calls, order)
    traced, t = run.traced_pass(calls, order)
    assert [checker.signature(r) for r in traced.results] == [
        checker.signature(r) for r in plain.results
    ]
    assert all(t.counters.calls[layer] > 0 for layer in tracer.LAYERS)
    assert t.counters.calls["driver"] == len(calls)
    assert t.counters.peak_bits > 0 and t.counters.bit_steps > 0


def test_every_wrapper_is_removed_after_a_traced_pass():
    import seqroots

    calls = _sample_calls()[:5]
    before = tracer.bindings()
    with tracer.Tracer():
        during = tracer.bindings()
        assert seqroots.driver.eval_rational is not before[("seqroots.driver", "eval_rational")]
        assert seqroots.sequences.mat_vec is not before[("seqroots.sequences", "mat_vec")]
    changed = [k for k in before if during[k] is not before[k]]
    # every binding of every wrapped function, in every module that binds it
    assert ("seqroots", "dominant_root") in changed
    assert ("seqroots.driver", "shift_scale") in changed
    assert ("SequenceFamily", "__init__") in changed
    run.traced_pass(calls, list(range(len(calls))))
    after = tracer.bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# -- inputs ---------------------------------------------------------------------


def test_one_seed_always_generates_the_same_inputs():
    assert inputs.dominant_corpus(seed=5, count=6) == inputs.dominant_corpus(seed=5, count=6)
    assert inputs.dominant_corpus(seed=5, count=6) != inputs.dominant_corpus(seed=6, count=6)


def test_stored_inputs_match_their_generator():
    stored = inputs.load(inputs.data_path("dominant-corpus"))
    head = inputs.dominant_corpus(count=25)
    assert stored["calls"][: len(head)] == head
    assert stored["corpus_seed"] == inputs.DOMINANT_SEED
    assert sum(c["entry"] == "dominant_root" for c in stored["calls"]) == inputs.DOMINANT_SIZE
    assert inputs.load(inputs.data_path("digits-ladder")) == inputs.generate("digits-ladder")


def test_enumerate_corpus_is_the_test_corpus_plus_the_hard_cases():
    stored = inputs.load(inputs.data_path("enumerate-corpus"))
    assert stored == inputs.generate("enumerate-corpus")
    coeffs = [tuple(c["coeffs"]) for c in stored["calls"]]
    assert coeffs[-2:] == list(inputs.HARD_CASES)
    assert len(coeffs) == inputs.ENUMERATE_SIZE + len(inputs.HARD_CASES)
    assert stored["calls"][-2]["mult"] == [2]


# -- the command ----------------------------------------------------------------


def test_command_prints_every_metric_and_the_counts(capsys):
    assert run.main(["--workload", "digits-ladder", "--seed", "3", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.E2E_UNITS)
    assert last["correct"] is True
    assert last["attempted"] == len(inputs.digits_ladder())


def test_another_corpus_seed_gets_its_reference_on_the_fly(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    args = ["--workload", "dominant-corpus", "--corpus-seed", "7", "--seconds", "0"]
    assert run.main(args) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    generated = inputs.load(tmp_path / "dominant-corpus-corpus7.json")
    assert generated["corpus_seed"] == 7
    assert generated["calls"] != inputs.load(inputs.data_path("dominant-corpus"))["calls"]
    assert last["attempted"] == len(generated["calls"])
    assert last["correct"] is True


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "digits-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
