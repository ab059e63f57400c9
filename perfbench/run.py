"""The repository benchmark: one command, three workloads, every answer checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs half the workload's script twice with spans recorded
around each layer's public functions (see ``tracing.py``) and once
untraced, prints the
per-layer metrics, checks that every count repeats exactly across the two
traced passes and that every layer the workload should exercise was
entered, and writes the second traced pass's spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata.  Pure Python: nothing to build, ``src/`` is imported
in place.  Exits with code 2 when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CLASSES = ("Qg0", "Qg2", "Qg3")
#: Units of the traced metrics that must repeat exactly for one seed.
COUNT_UNITS = ("count", "share")


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` directly, or ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(tally, setup_seconds) -> dict:
    from workloads import quantile

    answers = tally.answer_ms
    return {
        "setup_s": _metric(statistics.median(setup_seconds), "s"),
        "answer_ms_p50": _metric(quantile(answers, 50), "ms"),
        "answer_ms_p90": _metric(quantile(answers, 90), "ms"),
        "answer_qps": _metric(tally.answer_qps, "1/s"),
        "exact_ms_p50": _metric(quantile(tally.exact_ms, 50), "ms"),
        "stream_ttfa_ms_p50": _metric(quantile(tally.stream_ms, 50), "ms"),
        "ingest_rows_per_s": _metric(quantile(tally.insert_rows_per_s, 50), "1/s"),
        "refresh_ms_p50": _metric(quantile(tally.refresh_ms, 50), "ms"),
        "approx_share": _metric(tally.approx_groups / max(tally.groups, 1), "share"),
        "bound_coverage": _metric(tally.covered / max(tally.bounded, 1), "share"),
        "success_rate": _metric(
            max(0.0, 1.0 - tally.failed / max(tally.attempted, 1)), "share"
        ),
        "rss_peak_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def rel_error_l1(tally) -> dict:
    """Definition 3.1's L1 error, averaged over the scored answers.

    A per-layer value, not an end-to-end one: it depends on the seed's data
    and sample draws alone, and across seeds its interquartile spread (0.14
    to 0.28 of the median) is wider than any bound the benchmark may set.
    """
    return _metric(statistics.fmean(tally.rel_errors), "share")


def per_class(tally) -> dict:
    """Approximate vs exact latency per paper query class (paper_cold only)."""
    from workloads import quantile

    out = {}
    for label in CLASSES:
        answer = tally.class_ms.get((label, "answer"))
        exact = tally.class_ms.get((label, "exact"))
        a = quantile(answer, 50) if answer else 0.0
        e = quantile(exact, 50) if exact else 0.0
        out[f"class.{label}.answer_ms_p50"] = _metric(a, "ms")
        out[f"class.{label}.exact_ms_p50"] = _metric(e, "ms")
        out[f"class.{label}.answer_to_exact_ratio"] = _metric(
            a / e if e else 0.0, "ratio"
        )
    return out


def run_pass(workload, rec=None, repeats=1):
    """Set up (``repeats`` times) and run the script once."""
    from workloads import Tally, timed_setups

    setup_seconds, ready = timed_setups(workload, repeats, rec)
    # Set-up garbage is collected now, not inside the first timed calls.
    gc.collect()
    tally = Tally(rec=rec)
    try:
        workload.script(tally, ready)
    finally:
        workload.teardown(ready)
    return tally, setup_seconds


def traced(workload, meta) -> tuple:
    """Two traced passes with one seed, then an untraced reference pass.

    The first traced pass also warms the process up; the second pass's
    spans and metrics are the ones reported, and every count must be
    identical in both.
    """
    import tracing

    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    passes = []
    try:
        for _ in range(2):
            rec.reset()
            tally, _ = run_pass(workload, rec=rec)
            passes.append(
                (tally, _layer_metrics(rec, tally), list(rec.spans), dict(rec.op_kinds))
            )
    finally:
        uninstall()
    reference, _ = run_pass(workload)

    (first, counted, _, _), (second, metrics, spans, op_kinds) = passes
    problems = [
        f"layer never entered on {workload.name}: {name}"
        for name in tracing.entered_check(spans, workload.name)
    ]
    problems += [
        f"count differs across traced passes: {name} {counted[name]['value']} "
        f"vs {metric['value']}"
        for name, metric in metrics.items()
        if metric["unit"] in COUNT_UNITS and metric["value"] != counted[name]["value"]
    ]
    metrics["obs.trace_overhead_ratio"] = _metric(
        second.answer_qps / reference.answer_qps, "ratio"
    )
    metrics.update(per_class(reference))
    metrics["rel_error_l1"] = rel_error_l1(reference)
    OUT_DIR.mkdir(exist_ok=True)
    tracing.write_spans(
        OUT_DIR / f"{workload.name}-seed{workload.seed}.spans.jsonl",
        spans,
        op_kinds,
        meta,
    )
    return [first, second, reference], metrics, problems


def _layer_metrics(rec, tally) -> dict:
    import tracing

    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in tracing.layer_metrics(
            rec.spans, rec.op_kinds, tally.answers
        ).items()
    }
    answers = max(tally.answers, 1)
    for tier in ("exact", "canonical", "rollup"):
        metrics[f"aqua.cache.hit_share.{tier}"] = _metric(
            tally.tiers.get(tier, 0) / answers, "share"
        )
    metrics["aqua.cache.evictions_per_answer"] = _metric(
        tally.evictions / answers, "count"
    )
    metrics["serve.service.ServeResult.queued_ms_per_answer"] = _metric(
        sum(tally.queued_ms) / answers, "ms"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from workloads import SETUP_REPEATS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # A traced run makes three passes, so each runs half the script.
    seconds = max(1, args.seconds // 2) if args.trace else args.seconds
    workload = WORKLOADS[args.workload](args.seed, seconds)
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "script_seconds": seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "space_budget": workload.budget,
        **workload.table_sizes(),
    }
    if args.trace:
        tallies, metrics, problems = traced(workload, meta)
    else:
        tally, setup_seconds = run_pass(workload, repeats=SETUP_REPEATS)
        tallies, problems = [tally], []
        metrics = end_to_end(tally, setup_seconds)
        meta["setup_seconds"] = setup_seconds
        meta["answers"] = tally.answers
        meta["cache_tiers"] = tally.tiers
        meta["rel_error_l1"] = rel_error_l1(tally)["value"]
    if workload.note:
        meta["note"] = workload.note
    problems += [msg for tally in tallies for msg in tally.failures]
    expected = _declared_metrics(args.trace)
    if expected is not None and set(expected) != set(metrics):
        problems.append(
            "metric names differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(metrics))}, "
            f"extra {sorted(set(metrics) - set(expected))}"
        )
    meta["problems"] = problems
    meta["wall_seconds"] = time.perf_counter() - started
    print(json.dumps({"meta": meta}))
    failed = sum(tally.failed for tally in tallies)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(tally.attempted for tally in tallies),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _declared_metrics(trace: int):
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
