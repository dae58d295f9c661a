#!/usr/bin/env python3
"""Benchmark of seqroots' public entry points, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dominant-corpus --seed 1 --seconds 40 --trace 0

One process and one thread make every call, one after another: a closed
loop with a single client.  A run repeats whole passes over the
workload's calls until the next pass would end after ``--seconds``.  There
is always at least one pass.  Between passes it times ``setup_s``: fresh
interpreters that import ``seqroots`` and build the workload's calls from
its stored coefficient lists.  ``--seed`` orders the
calls of a pass; the inputs themselves are fixed by the workload's corpus
seed (``--corpus-seed`` picks another, whose reference is then computed on
the fly).  Every result is checked against the stored reference.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-call records
go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

import checker
import inputs
from tracer import Tracer

#: ``setup_s`` is the median of this many fresh interpreters, about 0.2 s
#: each.  They are spread over the run, between passes: the machine's speed
#: drifts over tens of seconds, and launches made together all see one speed.
SETUP_REPEATS = 21
#: The tail is the highest percentile with this many calls beyond it, and is
#: reported only with at least four times as many calls.
TAIL_BEYOND = 10
TAIL_MIN_CALLS = 4 * TAIL_BEYOND

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import inputs; "
    "inputs.build_calls(inputs.load(sys.argv[3]))"
)

E2E_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms", "case_tail_ms": "ms"}


def import_seqroots() -> Any:
    """``seqroots`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "seqroots" / "__init__.py").is_file():
        raise SystemExit(f"error: no seqroots package under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqroots

    if Path(seqroots.__file__).resolve().parent != (SRC / "seqroots").resolve():
        raise SystemExit(f"error: imported seqroots from {seqroots.__file__}, not {SRC}")
    return seqroots


def workload_data(workload: str, corpus_seed: Optional[int]) -> Path:
    """Stored inputs for the default corpus seed; otherwise generated here
    (reference included) and kept under ``out/`` for the next run.
    ``digits-ladder`` has no corpus seed and always uses its stored inputs."""
    default = inputs.default_seed(workload)
    if corpus_seed is None or default is None or corpus_seed == default:
        return inputs.data_path(workload)
    path = OUT_DIR / f"{workload}-corpus{corpus_seed}.json"
    if not path.is_file():
        inputs.save(inputs.generate(workload, corpus_seed), path)
    return path


def time_setup(data: Path, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters that import seqroots and
    build the calls from ``data``."""
    times = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), str(data)],
            check=True,
            stdin=subprocess.DEVNULL,
        )
        times.append(perf_counter() - start)
    return times


class Pass:
    """One pass over every call: wall time, per-call times and results."""

    def __init__(self, n: int) -> None:
        self.wall = 0.0
        self.times = [0.0] * n
        self.results: list[Any] = [None] * n
        self.layers: list[Optional[tuple]] = [None] * n  # traced passes only


def run_pass(calls: list, order: list[int], tracer: Optional[Tracer] = None) -> Pass:
    import seqroots

    # resolved per pass, so that a traced pass calls the wrappers
    fns = {name: getattr(seqroots, name) for name in
           ("dominant_root", "root_via_shift", "enumerate_real_roots")}
    out = Pass(len(calls))
    gc.collect()
    start = perf_counter()
    for i in order:
        call = calls[i]
        fn = fns[call.entry]
        t = perf_counter()
        try:
            if call.shift is None:
                result = fn(call.poly, call.opts)
            else:
                result = fn(call.poly, call.shift, call.opts)
        except Exception as exc:  # a raising call is a failed call, still timed
            result = exc
        out.times[i] = perf_counter() - t
        out.results[i] = result
        if tracer is not None:
            out.layers[i] = tracer.counters.snapshot()
    out.wall = perf_counter() - start
    return out


def traced_pass(calls: list, order: list[int]) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    with tracer:
        result = run_pass(calls, order, tracer)
    return result, tracer


def judge_pass(spec: dict, p: Pass) -> list[checker.Verdict]:
    return [checker.judge(c, r) for c, r in zip(spec["calls"], p.results)]


def tail_index(n: int) -> Optional[int]:
    return n - TAIL_BEYOND - 1 if n >= TAIL_MIN_CALLS else None


def e2e_metrics(passes: list[Pass], setup_s: float) -> dict[str, float]:
    n = len(passes[0].times)
    per_call = sorted(statistics.median(p.times[i] for p in passes) for i in range(n))
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": statistics.median(n / p.wall for p in passes),
        "case_p50_ms": 1e3 * statistics.median(per_call),
    }
    k = tail_index(n)
    if k is not None:
        metrics["case_tail_ms"] = 1e3 * per_call[k]
    return metrics


def layer_metrics(tracers: list[Tracer], roots_correct: int, overhead: float) -> dict:
    counters = [t.counters for t in tracers]
    c = counters[0]

    def med(layer: str) -> float:
        return statistics.median(x.self_s[layer] for x in counters)

    families = c.calls["family"]
    return {
        "driver.self_s": (med("driver"), "s"),
        "driver.families_per_root": (families / roots_correct if roots_correct else float(families), "1"),
        "driver.roots_correct": (roots_correct, "1"),
        "sequences.families": (families, "1"),
        "sequences.steps": (c.calls["step"], "1"),
        "sequences.step_s": (med("step"), "s"),
        "sequences.ratio_calls": (c.calls["ratio"], "1"),
        "sequences.ratio_s": (med("ratio"), "s"),
        "sequences.peak_bits": (c.peak_bits, "bits"),
        "sequences.bit_steps": (c.bit_steps, "bits"),
        "companion.matvec_calls": (c.calls["matvec"], "1"),
        "companion.matvec_s": (med("matvec"), "s"),
        "render.calls": (c.calls["render"], "1"),
        "render.s": (med("render"), "s"),
        "poly.eval_calls": (c.calls["eval"], "1"),
        "poly.eval_s": (med("eval"), "s"),
        "poly.transform_calls": (c.calls["transform"], "1"),
        "poly.transform_s": (med("transform"), "s"),
        "trace.overhead_pct": (overhead, "%"),
    }


def _layer_delta(before: Optional[tuple], after: tuple) -> dict:
    calls0, self0, _, bits0 = before if before is not None else ({}, {}, 0, 0)
    calls1, self1, peak, bits1 = after
    return {
        "calls": {k: v - calls0.get(k, 0) for k, v in calls1.items()},
        "self_ms": {k: round(1e3 * (v - self0.get(k, 0.0)), 4) for k, v in self1.items()},
        "bit_steps": bits1 - bits0,
        "peak_bits_so_far": peak,
    }


def _reported(result: Any, digits: int) -> Any:
    if isinstance(result, Exception):
        return repr(result)
    if isinstance(result, list):
        return [_reported(e, digits) for e in result]
    return {"status": result.status.name, "value": result.decimal(digits),
            "iterations": result.iterations, "peak_bits": result.peak_bits}


def write_records(path: Path, spec: dict, order: list[int], untraced: list[Pass],
                  verdicts: list[checker.Verdict], traced: list[Pass], summary: dict) -> None:
    calls = []
    first_traced = traced[0] if traced else None
    previous: dict[int, Optional[tuple]] = {}
    last = None
    for i in order:
        previous[i] = last
        last = first_traced.layers[i] if first_traced else None
    for i, c in enumerate(spec["calls"]):
        record = dict(c)
        record["verdict"] = verdicts[i].kind or "ok"
        record["reported"] = _reported(untraced[0].results[i], c["digits"])
        record["ms"] = [round(1e3 * p.times[i], 4) for p in untraced]
        if first_traced is not None:
            record["traced_ms"] = [round(1e3 * p.times[i], 4) for p in traced]
            record["layers"] = _layer_delta(previous[i], first_traced.layers[i])
        calls.append(record)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "order": order, "calls": calls}, fh, indent=1)
        fh.write("\n")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 corpus_seed: Optional[int]) -> dict:
    data = workload_data(workload, corpus_seed)
    spec = inputs.load(data)
    calls = inputs.build_calls(spec)
    n = len(calls)
    order = list(range(n))
    random.Random(seed).shuffle(order)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[Tracer] = []
    # set-up is an end-to-end metric, timed in untraced runs only
    repeats = 0 if trace else SETUP_REPEATS
    setup_times: list[float] = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        untraced.append(run_pass(calls, order))
        if trace:
            p, t = traced_pass(calls, order)
            traced.append(p)
            tracers.append(t)
        # the launches due by now, at an even pace over --seconds
        elapsed = perf_counter() - start
        due = min(repeats, math.ceil(repeats * elapsed / seconds)) if seconds > 0 else 0
        setup_times += time_setup(data, due - len(setup_times))
        # whole rounds only: stop before a round that would end past --seconds
        now = perf_counter()
        if now + (now - round_start) - start > seconds:
            break
    setup_times += time_setup(data, repeats - len(setup_times))

    verdicts = judge_pass(spec, untraced[0])
    reference = [checker.signature(r) for r in untraced[0].results]
    consistent = all(
        [checker.signature(r) for r in p.results] == reference
        for p in untraced[1:] + traced
    ) and all(t.counters.calls == tracers[0].counters.calls
              and t.counters.bit_steps == tracers[0].counters.bit_steps for t in tracers)
    kinds = Counter(v.kind for v in verdicts if not v.ok)
    passes = len(untraced) + len(traced)
    failed_per_pass = sum(kinds.values())
    correct = consistent and all(k in checker.KNOWN_KINDS for k in kinds)
    roots_correct = sum(v.roots_correct for v in verdicts)

    if trace:
        overhead = 100.0 * (statistics.median(p.wall for p in traced)
                            / statistics.median(p.wall for p in untraced) - 1.0)
        metrics = layer_metrics(tracers, roots_correct, overhead)
    else:
        setup_s = statistics.median(setup_times)
        metrics = {k: (v, E2E_UNITS[k]) for k, v in e2e_metrics(untraced, setup_s).items()}

    summary = {
        "workload": workload,
        "seed": seed,
        "corpus_seed": spec["corpus_seed"],
        "calls_per_pass": n,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "pass_s": [round(p.wall, 6) for p in untraced],
        "traced_pass_s": [round(p.wall, 6) for p in traced],
        "failed_per_pass": dict(sorted(kinds.items())),
        "consistent": consistent,
        "correct": correct,
        "attempted": n * passes,
        "failed": failed_per_pass * passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    write_records(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json",
                  spec, order, untraced, verdicts, traced, summary)
    return summary


def report(summary: dict) -> None:
    n = summary["calls_per_pass"]
    print(f"workload {summary['workload']}: {n} calls per pass, "
          f"{summary['untraced_passes']} untraced and {summary['traced_passes']} traced passes, "
          f"order seed {summary['seed']}, corpus seed {summary['corpus_seed']}")
    for name, m in summary["metrics"].items():
        note = ""
        if name == "case_tail_ms":
            note = f"  (p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n} calls, {TAIL_BEYOND} beyond)"
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}{note}")
    if summary["traced_passes"]:
        print(f"  untraced passes {summary['pass_s']} s, traced passes {summary['traced_pass_s']} s")
    kinds = ", ".join(f"{k} {v}" for k, v in summary["failed_per_pass"].items()) or "none"
    print(f"  attempted {summary['attempted']}  failed {summary['failed']}"
          f"  (per pass: {kinds})  correct {summary['correct']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="orders the calls of a pass")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for about this long: no pass starts that would end later")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int,
                        help="generate the inputs from this corpus seed instead of the stored ones")
    args = parser.parse_args(argv)

    # one thread: keep numpy (imported by seqroots for its float oracle) from
    # starting a thread pool in this process and in the set-up interpreters
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_seqroots()
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                               args.corpus_seed)
        report(summary)
        summaries.append(summary)
        if len(workloads) > 1:
            print(json.dumps({k: summary[k] for k in ("correct", "attempted", "failed", "metrics")}))
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
