"""Closed-loop benchmark of planardyn's certificate layers.

Run from the root of a planardyn source tree:

    python3 perfbench/run.py --workload lift --seed 1 --seconds 30 --trace 0

One process, one thread, one operation in flight.  The program is imported
from ``src/`` of the tree and driven only through its public functions.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half the time on a traced pass (timing wrappers
around each layer, see ``spans.py``), then replays the same inputs
untraced; it reports the per-layer metrics and the tracing overhead.

Every metric is printed by name with its unit on ``#`` lines; the last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, sanity  # noqa: E402
from speed import SpeedMeter, clock  # noqa: E402

PACKAGE = "planardyn"
# Set-up is repeated and its median reported, so one slow import or cold
# file cache does not decide the figure.
SETUP_REPS = 3


def _load_program():
    """Import planardyn from scratch (dropping any loaded copy)."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pd = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".dynamics")
    return pd


def setup(workload: str, meter):
    """Import, contexts, registry and one untimed warm-up op of each kind,
    SETUP_REPS times.  Returns (median seconds, runner, package, warm-ups ok)."""
    times, warm_ok = [], True
    for _ in range(SETUP_REPS):
        t0 = clock()
        pd = _load_program()
        runner = workloads.Runner(workload, pd)
        for item in workloads.WARMUP_INPUTS[workload]:
            ok, _ = runner.op(item)
            warm_ok = warm_ok and ok
        times.append(meter.normalised(t0, clock()))
    origin = Path(pd.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"error: {PACKAGE} was imported from {origin}, not from {SRC}")
    return statistics.median(times), runner, pd, warm_ok


def run_op(op, item, errors):
    """One op; an exception (DomainError, SlitError or other) fails it."""
    try:
        ok, evidence = op(item)
    except Exception:  # the loop must go on; the failure is counted and shown
        if len(errors) < 3:
            errors.append(traceback.format_exc())
        return False, None
    return bool(ok), evidence


def closed_loop(op, inputs, seconds, errors, meter, count=None):
    """Run ops back to back for ``seconds`` of wall time (or exactly ``count``
    ops).  Returns per-op normalised CPU seconds, verdicts and evidence."""
    lat, oks, evs = [], [], []
    wall_start = time.perf_counter()
    k = 0
    while True:
        item = inputs[k % len(inputs)]
        t0 = clock()
        ok, ev = run_op(op, item, errors)
        lat.append(meter.normalised(t0, clock()))
        oks.append(ok)
        evs.append(ev)
        k += 1
        if count is not None:
            if k >= count:
                break
        elif time.perf_counter() - wall_start >= seconds:
            break
    return lat, oks, evs


def _commit() -> str:
    """Commit of the source tree when it is a git checkout, else 'unknown'."""
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


def conditions(args, runner, pd, digest) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "precisions": runner.precisions,
        "planardyn_version": pd.__version__,
        "planardyn_commit": _commit(),
        "inputs_sha256": digest,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    inputs = workloads.generate(args.workload, args.seed)
    digest = workloads.digest(inputs)
    errors = []
    with SpeedMeter() as meter:
        setup_s, runner, pd, warm_ok = setup(args.workload, meter)
        print("# conditions " + json.dumps(conditions(args, runner, pd, digest), sort_keys=True))
        if args.trace == 0:
            lat, oks, _ = closed_loop(runner.op, inputs, args.seconds, errors, meter)
        else:
            tracer = Tracer()
            tracer.install(PACKAGE, runner.contexts)
            try:
                lat_t, oks_t, evs_t = closed_loop(
                    lambda item: tracer.run_op(runner.op, item),
                    inputs, args.seconds / 2, errors, meter,
                )
            finally:
                tracer.uninstall()
            # the same inputs again, untraced: the overhead's base
            lat_u, oks_u, evs_u = closed_loop(
                runner.op, inputs, 0, errors, meter, count=len(oks_t)
            )
    speed = {"speed.ref_loop_ms": (1e3 * statistics.median(meter.cost), "ms")}

    if args.trace == 0:
        attempted, failed = len(oks), oks.count(False)
        correct = warm_ok and failed == 0
        reported = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (attempted / sum(lat), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "op_p90_ms": (1e3 * _p90(lat), "ms"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        shown = {**reported, "fail_ratio": (failed / attempted, "ratio"),
                 "ops": (attempted, "count"), **speed}
    else:
        summary = tracer.summary(workloads.HEAVY_BITS)
        entries = pd.square_map.line_rule.cache_info().currsize
        reported = layer_metrics(summary, entries, sum(lat_t) / sum(lat_u))
        oks = oks_t + oks_u
        attempted, failed = len(oks), oks.count(False)
        # tracing must not change what the program computes
        same = evs_t == evs_u
        correct = warm_ok and failed == 0 and same
        shown = {**reported, "fail_ratio": (failed / attempted, "ratio"),
                 "traced_ops": (len(oks_t), "count"), "spans": (summary["spans"], "count"),
                 **speed}
        print(f"# traced evidence equals untraced evidence: {same}")
        for name, passed in sanity(args.workload, summary):
            print(f"# trace sanity {name}: {'pass' if passed else 'FAIL'}")

    for name, (value, unit) in shown.items():
        print(f"# metric {name} {value:.6g} {unit}")
    for text in errors:
        print(text, file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    print(json.dumps(result))
    return 0


def _p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


if __name__ == "__main__":
    sys.exit(main())
