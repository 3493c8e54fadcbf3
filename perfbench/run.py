"""The equispin benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, default seed, 15 s each

Run from the root of a checkout; equispin is imported from its ``src``.
Each workload is a closed loop with one client: a fresh interpreter calls
``equispin.cli.main`` in-process on one generated input at a time, in whole
passes over the seeded corpus, until S seconds have gone by.

With ``--trace 0`` the run reports the end-to-end metrics (``ops_per_s``,
``latency_p50_ms``, ``latency_tail_ms``, ``setup_s``, ``peak_rss_mb``; the
summary lines add ``fail_share``).  With ``--trace 1`` it makes a fixed
number of passes twice, each in a fresh interpreter, once plain and once
traced, and reports per-layer calls, self time and counters from the traced
interpreter, plus the tracing overhead.  Every output is checked; the last
line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402

DEFAULT_SEED = 0
DEFAULT_SECONDS = 15
SETUP_RUNS = 9
# Whole runs are killed past this, so that every run ends within 180 s.
RUN_BUDGET_S = 170.0

WORKLOADS = {
    # cap: per-operation cap in seconds.
    # passes: (fewest, most) passes of a timed run, 0 for no most, so that the
    #   median and tail samples land in the same population whatever the
    #   machine's speed.  A verdict-large-p pass takes 12-20 s at the
    #   benchmark's parent and its first pass fills the caches, so that
    #   workload always makes one cold and one warm pass.
    # trace_passes: fixed passes of a traced run, so its counts repeat exactly.
    # batch, probes: the untimed extras the worker runs after the loop.
    "verdict-p3": {"cap": 10.0, "passes": (1, 0), "trace_passes": 10, "batch": True, "probes": False},
    "verdict-large-p": {"cap": 60.0, "passes": (2, 2), "trace_passes": 1, "batch": True, "probes": False},
    "adams-sweep": {"cap": 3.0, "passes": (4, 0), "trace_passes": 2, "batch": False, "probes": True},
}

SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import equispin.cli as c; c._build_parser(); e = time.perf_counter() - t; "
    "assert c.__file__.startswith(sys.argv[1]), c.__file__; print(repr(e))"
)

RATIO_METRICS = (
    # name, numerator counter, base counter or layer metric
    ("lefschetz.point_term.hit_ratio", "point_term_hits", "point_term_lookups"),
    ("cyclo.reduced.drop_ratio", "reduced_drops", "cyclo.reduced.calls"),
    ("intlinalg.solve.hit_ratio", "solve_hits", "intlinalg.solve.calls"),
)


class BenchError(Exception):
    pass


def _deadline_left(started: float) -> float:
    left = RUN_BUDGET_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def measure_setup(started: float) -> float:
    """Median seconds for a fresh interpreter to import equispin.cli and build its parser."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(ROOT / "src")],
            capture_output=True,
            text=True,
            timeout=_deadline_left(started),
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
        if i:  # the first one may compile bytecode; it is not counted
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def run_worker(started: float, ops_file: Path, result_file: Path, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ops_file), str(result_file), *args],
        capture_output=True,
        text=True,
        timeout=_deadline_left(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-3000:]}")
    return json.loads(result_file.read_text())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def count_failed(result: dict) -> int:
    """Failed operations: a bad status or changed output, or an output breaking a check.

    An output is checked once per operation id, so a broken one failed on every pass.
    """
    failed_ids = {f["id"] for f in result["failures"]}
    broken = {p["id"] for p in result["problems"]} - failed_ids - {"batch"}
    return len(result["failures"]) + len(broken) * result["passes"]


def end_to_end(name, seed, seconds, work: Path, ops_file: Path, started, pin: bool) -> dict:
    spec = WORKLOADS[name]
    setup_s = measure_setup(started)
    args = ["--seconds", str(seconds), "--cap", str(spec["cap"])]
    args += ["--min-passes", str(spec["passes"][0]), "--max-passes", str(spec["passes"][1])]
    pinned = HERE / "digests" / f"{name}.json"
    args += ["--check", str(pinned) if seed == DEFAULT_SEED and not pin else ""]
    if spec["batch"]:
        args += ["--batch", str(work / "datasets")]
    if spec["probes"]:
        probes = work / "probes.json"
        probes.write_text(json.dumps(corpus.over_cap_ops()))
        args += ["--probes", str(probes)]
    result = run_worker(started, ops_file, work / "result.json", *args)
    latencies = result["latencies_s"]
    value, pct, n = tail(latencies)
    failed = count_failed(result)
    probes = result.get("probes", [])
    over_cap = sum(1 for p in probes if p["status"] != "ok")
    metrics = {
        "ops_per_s": {"value": result["attempted"] / result["wall_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
        "latency_tail_ms": {"value": 1000 * value, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    summary = {
        "fail_share": (failed + over_cap) / (result["attempted"] + len(probes)),
        "tail_percentile": pct,
        "samples": n,
        "passes": result["passes"],
        "probes": probes,
    }
    problems = result["problems"] + [p for probe in probes for p in probe["problems"]]
    correct = failed == 0 and not problems
    if pin and correct:
        pinned.parent.mkdir(exist_ok=True)
        pinned.write_text(json.dumps(result["digests"], indent=1, sort_keys=True) + "\n")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
        "summary": summary,
        "failures": result["failures"] + problems,
    }


def per_layer(name: str, seed: int, work: Path, ops_file: Path, started) -> dict:
    spec = WORKLOADS[name]
    passes = str(spec["trace_passes"])
    base = ["--seconds", "0", "--min-passes", passes, "--max-passes", passes, "--cap", str(spec["cap"])]
    plain = run_worker(started, ops_file, work / "plain.json", *base, "--check", "")
    spans = WORK / "spans" / f"{name}-seed{seed}.spans"
    spans.parent.mkdir(parents=True, exist_ok=True)
    traced = run_worker(started, ops_file, work / "traced.json", *base, "--trace", str(spans))
    counters = traced["counters"]
    counters["point_term_lookups"] = counters["point_term_hits"] + counters["point_term_misses"]
    layers = traced["layers"]
    metrics = {}
    for fn_name, _, _ in FUNCTIONS:
        metrics[f"{fn_name}.calls"] = {"value": layers[f"{fn_name}.calls"], "unit": "count"}
        metrics[f"{fn_name}.self_s"] = {"value": layers[f"{fn_name}.self_s"], "unit": "s"}
    bases = {**counters, **layers}
    for metric, numerator, base_name in RATIO_METRICS:
        base_value = bases[base_name]
        ratio = counters[numerator] / base_value if base_value else 0.0
        metrics[metric] = {"value": ratio, "unit": "ratio"}
    metrics["lefschetz.point_term.lookups"] = {"value": counters["point_term_lookups"], "unit": "count"}
    metrics["cyclo.conductor_max"] = {"value": counters["conductor_max"], "unit": "count"}
    metrics["intlinalg.integer_kernel.max_dim"] = {"value": counters["kernel_max_dim"], "unit": "count"}
    metrics["intlinalg.integer_kernel.max_out_bits"] = {
        "value": counters["kernel_max_out_bits"],
        "unit": "bits",
    }
    metrics["trace.untraced_s"] = {"value": plain["wall_s"], "unit": "s"}
    metrics["trace.traced_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": traced["spans"], "unit": "count"}
    mismatched = sorted(k for k, v in traced["digests"].items() if plain["digests"].get(k) != v)
    failed = count_failed(plain) + len(traced["failures"])
    problems = plain["problems"] + [
        {"id": op_id, "problem": "traced stdout differs from untraced stdout"} for op_id in mismatched
    ]
    return {
        "correct": failed == 0 and not problems,
        "attempted": traced["attempted"],
        "failed": failed + len(mismatched),
        "metrics": metrics,
        "summary": {"spans_file": str(spans.relative_to(ROOT))},
        "failures": plain["failures"] + traced["failures"] + problems,
    }


def run(name: str, seed: int, seconds: float, trace: bool, pin: bool = False) -> dict:
    started = time.monotonic()
    if not (ROOT / "src" / "equispin" / "cli.py").is_file():
        raise BenchError(f"no equispin sources under {ROOT / 'src'}")
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        ops = corpus.generate(name, seed, work)
        ops_file = work / "operations.json"
        ops_file.write_text(json.dumps(ops))
        if trace:
            return per_layer(name, seed, work, ops_file, started)
        return end_to_end(name, seed, seconds, work, ops_file, started, pin)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_summary(name: str, result: dict) -> None:
    print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}")
    summary = result["summary"]
    if "fail_share" in summary:
        print(f"  {'fail_share':<44} {summary['fail_share']:>14.6g} ratio")
        print(f"  latency_tail_ms is p{summary['tail_percentile']:.2f} of {summary['samples']} "
              f"samples; {summary['passes']} passes")
        for probe in summary["probes"]:
            print(f"  over-cap probe {probe['id']}: {probe['status']} at {probe['seconds']:.3f} s")
    else:
        print(f"  spans written to {summary['spans_file']}")
    for failure in result["failures"][:20]:
        print(f"  FAILURE {json.dumps(failure)[:500]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="write the stdout digests of the default seed's checked outputs to digests/",
    )
    args = parser.parse_args(argv)
    if args.pin and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--pin needs the default seed and --trace 0")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run(name, args.seed, args.seconds, bool(args.trace), args.pin)
            print_summary(name, results[name])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
