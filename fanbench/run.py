"""Run one workload of the fanlab benchmark and print its metrics.

From the root of a checkout:

    python3 fanbench/run.py --workload mincap --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop of a single caller: each query
starts when the previous one and its output check have finished.  The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced re-run.  The line before it is a JSON object
of details: input properties, output digest, tail percentile and sample
count, setup repeats and, when traced, self time per phase and layer.
See fanbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WORK_ROOT = REPO / ".fanbench"

# setup_s is the median of several setups: at least SETUP_MIN_REPEATS, then
# more until SETUP_SPAN_S have passed since the first began, up to
# SETUP_MAX_REPEATS.  The starts of cheap setups are spaced evenly over the
# span: a shared machine runs in fast and slow phases of a second or more,
# and back-to-back setups of a few tens of milliseconds would all fall into
# one of them.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_SPAN_S = 5.0
# Untimed queries before the timed phase, so lazy set-up inside the CLI and
# the interpreter's caches are warm when timing starts.  They are checked and
# counted in attempted and failed like every other query.
WARMUP_QUERIES = 6
# Far above the slowest instance seen at the commit that defined the
# benchmark (under 1 s), so an overrun counts as a failed query instead of a
# hung run.
QUERY_DEADLINE_S = 60.0
# A traced run first runs this share of --seconds untraced, then the same
# queries traced; the ratio of the two is trace.overhead_ratio.
TRACE_UNTRACED_SHARE = 0.4
# Instances set up per second of --seconds.  The loop wraps around to the
# start of the pool when it runs out; "passes" in the details says how often.
POOL_PER_SECOND = {"mincap": 10, "families": 4, "space": 6}
MIN_POOL = 20
TAIL_BEYOND = 10


class QueryDeadline(BaseException):
    """Raised by SIGALRM when one query runs past QUERY_DEADLINE_S."""


def _on_alarm(signum, frame):
    raise QueryDeadline(f"query exceeded {QUERY_DEADLINE_S} s")


@dataclass
class Pass:
    """What one sweep of queries produced."""

    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    facts: list = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    attempted: int = 0

    @property
    def query_s(self) -> float:
        return sum(self.times)


def import_fanlab():
    """Import fanlab afresh, so each setup repeat pays the import again."""
    for name in [n for n in sys.modules if n == "fanlab" or n.startswith("fanlab.")]:
        del sys.modules[name]
    fl = importlib.import_module("fanlab")
    importlib.import_module("fanlab.cli")
    return fl


def setup(wl, insts, workdir: Path):
    """Import fanlab and run its steps that prepare every instance's inputs.

    Returns (seconds, fanlab).
    """
    workdir.mkdir(parents=True)
    # The previous setup's modules and families are garbage now; collect
    # them here rather than inside this setup's timing.
    gc.collect()
    start = time.perf_counter()
    fl = import_fanlab()
    wl.setup(fl, workdir, insts)
    return time.perf_counter() - start, fl


def run_queries(wl, fl, insts, *, seconds=None, count=None, tracer=None) -> Pass:
    """Run queries in pool order until `seconds` have passed or `count` ran."""
    phase = tracer.phase if tracer else lambda name: contextlib.nullcontext()
    result = Pass()
    start = time.perf_counter()
    while (count is None and time.perf_counter() - start < seconds) or (
        count is not None and result.attempted < count
    ):
        inst = insts[result.attempted % len(insts)]
        result.attempted += 1
        try:
            signal.setitimer(signal.ITIMER_REAL, QUERY_DEADLINE_S)
            try:
                began = time.perf_counter()
                with phase("query"):
                    out = wl.query(fl, inst)
                elapsed = time.perf_counter() - began
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            with phase("check"):
                wl.check(fl, inst, out)
        except (Exception, SystemExit, QueryDeadline) as exc:
            result.failures.append(f"instance {inst.index}: {type(exc).__name__}: {exc}")
            continue
        result.times.append(elapsed)
        result.digest.update(json.dumps(out, sort_keys=True).encode())
        result.facts.append(wl.facts(inst, out))
    return result


def end_to_end(setup_times: list, run: Pass) -> tuple[dict, dict]:
    times = sorted(run.times)
    n = len(times)
    error_rate = len(run.failures) / run.attempted if run.attempted else None
    # The highest percentile with at least TAIL_BEYOND samples above it.
    tail_at = max(0, n - TAIL_BEYOND - 1)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "queries_per_s": (n / run.query_s if run.query_s else 0.0, "1/s"),
        "query_p50_s": (statistics.median(times) if times else 0.0, "s"),
        "query_tail_s": (times[tail_at] if times else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (1 - error_rate if run.attempted else 0.0, "fraction"),
    }
    detail = {
        "query_tail_percentile": 100 * (tail_at + 1) / n if n else None,
        "query_samples": n,
        "error_rate": error_rate,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fanlab" / "__init__.py").is_file():
        print(f"error: no fanlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    insts = wl.instances(max(MIN_POOL, int(args.seconds * POOL_PER_SECOND[args.workload])))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        (workdir / "inputs").mkdir()
        wl.write_inputs(workdir / "inputs", insts)
        setup_times = []
        began = time.perf_counter()
        while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS and time.perf_counter() - began < SETUP_SPAN_S
        ):
            slot = began + len(setup_times) * SETUP_SPAN_S / SETUP_MAX_REPEATS
            time.sleep(max(0.0, slot - time.perf_counter()))
            seconds, fl = setup(wl, insts, workdir / f"setup{len(setup_times)}")
            setup_times.append(seconds)
        warmup = run_queries(wl, fl, insts, count=WARMUP_QUERIES)
        seconds = args.seconds * (TRACE_UNTRACED_SHARE if args.trace else 1)
        plain = run_queries(wl, fl, insts, seconds=seconds)
        metrics, detail = end_to_end(setup_times, plain)
        runs = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                (workdir / "traced").mkdir()
                with tracer.phase("setup"):
                    wl.setup(fl, workdir / "traced", insts[: plain.attempted])
                traced = run_queries(wl, fl, insts, count=plain.attempted, tracer=tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
            self_s = tracer.self_times()
            metrics = {name: (value, _unit(name)) for name, value in tracer.metrics(self_s).items()}
            overhead = traced.query_s / plain.query_s if plain.query_s else 0.0
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            detail["layer_self_s"] = tracer.layer_self_s(self_s)
            detail["query_s"] = {"untraced": plain.query_s, "traced": traced.query_s}
            detail["digest_traced"] = traced.digest.hexdigest()
            detail["spans"] = len(tracer.start)
            spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.gz"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(REPO))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = warmup.failures + [f for run in runs for f in run.failures]
    digests_agree = len({run.digest.hexdigest() for run in runs}) == 1
    detail.update(
        workload=args.workload,
        seed=args.seed,
        pool=len(insts),
        passes=plain.attempted / len(insts),
        setup_repeats_s=setup_times,
        properties=wl.properties(plain.facts),
        digest=plain.digest.hexdigest(),
        digest_queries=len(plain.times),
        failures=failures[:5],
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures and digests_agree,
                "attempted": warmup.attempted + sum(run.attempted for run in runs),
                "failed": len(failures),
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio", "_per_call")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
