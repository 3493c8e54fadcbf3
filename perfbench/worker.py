"""One fresh interpreter of the equispin benchmark; started by ``run.py``.

    worker.py OPS RESULT --seconds S --cap C [--min-passes N] [--max-passes M]
              [--check DIGESTS] [--batch DIR] [--probes FILE]
    worker.py OPS RESULT --seconds 0 --cap C --min-passes N --trace SPANS
        Run the operations in OPS through ``equispin.cli.main`` in order, in
        whole passes, until S seconds have gone by and N passes are made, or
        M passes are made; one operation at a time.  An operation running past C seconds is stopped
        and counted at C.  Then, untimed: check every output, compare with the
        pinned digests, run ``verdict --batch`` over the corpus, and run the
        over-cap probes.  With --trace, spans are recorded around equispin's
        public functions and written to SPANS, and no checks are made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BATCH_CAP_S = 120.0


def _import_program():
    """Import equispin from the checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import equispin

    if Path(equispin.__file__).resolve().parent != SRC / "equispin":
        raise SystemExit(f"equispin imported from {equispin.__file__}, not from {SRC}")


class OverCap(BaseException):
    """Raised by the alarm inside an operation that ran past its cap."""


def _alarm(signum, frame):
    raise OverCap()


def run_op(argv: list[str], cap: float):
    """(status, seconds, stdout, stderr) of one ``cli.main`` call.

    The status is 'ok', 'exit-N', 'over-cap' or 'raised'; an over-cap call counts
    as taking exactly ``cap`` seconds.
    """
    from equispin import cli

    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        status = "ok" if rc == 0 else f"exit-{rc}"
    except OverCap:
        status = "over-cap"
    except Exception:
        status = "raised"
        err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if status == "over-cap":
        elapsed = cap
    return status, elapsed, out.getvalue(), err.getvalue()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def loop(args) -> dict:
    ops = json.loads(Path(args.ops).read_text())
    tracer = None
    if args.trace:
        from equispin import lefschetz
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        cache_before = lefschetz._point_term.cache_info()

    latencies: list[float] = []
    outputs: dict[str, str] = {}
    failures: list[dict] = []
    attempted = 0
    passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.start_op(attempted)
            status, elapsed, stdout, stderr = run_op(op["argv"], args.cap)
            attempted += 1
            latencies.append(elapsed)
            first = outputs.setdefault(op["id"], stdout)
            if status != "ok":
                failures.append({"id": op["id"], "reason": status, "stderr": stderr[-2000:]})
            elif stdout != first:
                failures.append({"id": op["id"], "reason": "output differs between passes"})
        passes += 1
        wall = time.perf_counter() - start
        if passes == args.max_passes or (wall >= args.seconds and passes >= args.min_passes):
            break

    result = {
        "attempted": attempted,
        "passes": passes,
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": {op_id: _sha(text) for op_id, text in outputs.items()},
        "failures": failures,
        "problems": [],
    }
    if tracer is not None:
        cache_after = lefschetz._point_term.cache_info()
        result["layers"] = tracer.function_metrics()
        result["counters"] = dict(tracer.counters)
        result["counters"]["point_term_hits"] = cache_after.hits - cache_before.hits
        result["counters"]["point_term_misses"] = cache_after.misses - cache_before.misses
        result["spans"] = len(tracer.span_start)
        tracer.write(args.trace)
        return result

    if args.check is not None:
        result["problems"] = _check_outputs(ops, outputs, args)
    if args.probes:
        result["probes"] = _probes(args)
    return result


def _check_outputs(ops, outputs, args) -> list[dict]:
    import checks

    problems = []
    pinned = json.loads(Path(args.check).read_text()) if args.check else {}
    per_file = {}
    for op in ops:
        stdout = outputs[op["id"]]
        if op["argv"][0] == "verdict":
            per_file[op["id"]] = stdout
            found = checks.check_verdict(Path(op["argv"][1]).read_text(), stdout)
        else:
            found = checks.check_prop41(stdout)
        if pinned and pinned.get(op["id"]) != _sha(stdout):
            found.append("stdout digest differs from the pinned digest")
        problems.extend({"id": op["id"], "problem": text} for text in found)
    if args.batch:
        status, _, stdout, stderr = run_op(
            ["verdict", "--batch", args.batch, "--format", "json"], BATCH_CAP_S
        )
        if status != "ok":
            problems.append({"id": "batch", "problem": f"{status}: {stderr[-2000:]}"})
        else:
            problems.extend({"id": "batch", "problem": text} for text in checks.check_batch(stdout, per_file))
    return problems


def _probes(args) -> list[dict]:
    """Run the instances known to exceed the cap; a finished one has its output checked."""
    import checks

    out = []
    for op in json.loads(Path(args.probes).read_text()):
        status, elapsed, stdout, _ = run_op(op["argv"], args.cap)
        problems = checks.check_prop41(stdout) if status == "ok" else []
        out.append({"id": op["id"], "status": status, "seconds": elapsed, "problems": problems})
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("ops")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cap", type=float, required=True)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--max-passes", type=int, default=0, help="0 for no limit")
    parser.add_argument("--check", help="pinned digests file, or '' for none")
    parser.add_argument("--batch")
    parser.add_argument("--probes")
    parser.add_argument("--trace")
    args = parser.parse_args()
    _import_program()
    signal.signal(signal.SIGALRM, _alarm)
    result = loop(args)
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
