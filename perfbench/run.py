"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A provenance record and a human-readable
summary are printed before it.

Extra modes:

- ``--smoke``: tiny sizes and one set-up trial; the benchmark's own tests
  (``perfbench/test_smoke.py``) use it to check the output schema.
- ``--steadiness N``: run the workload N times with seeds ``seed ..
  seed+N-1`` (each a separate process) and print, per end-to-end metric,
  the median, quartiles and IQR / median.

See ``perfbench/README.md`` for the workloads and metrics.
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

sys.dont_write_bytecode = True

from common import (  # noqa: E402
    END_TO_END, PER_LAYER, PYCACHE, SRC, WORK, Context, clean_dir,
    install_signal_exit, provenance, stop_children,
)

WORKLOADS = ("cli-cold", "whatif-numeric", "campaign-resume", "daemon-mix")


def _module(workload: str):
    if workload == "cli-cold":
        import cli_cold as module
    elif workload == "whatif-numeric":
        import whatif as module
    elif workload == "campaign-resume":
        import campaign as module
    else:
        import daemon as module
    return module


def run_once(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.pycache_prefix = str(PYCACHE)
    load_start = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    work = clean_dir(WORK / f"run-{os.getpid()}")
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  smoke=args.smoke, work=work)
    install_signal_exit()
    started = time.perf_counter()
    try:
        outcome = _module(args.workload).run(ctx)
    finally:
        stop_children()
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if ctx.trace else END_TO_END
    unlisted = set(outcome.metrics) - set(names)
    if unlisted:
        raise RuntimeError(f"unlisted metrics {sorted(unlisted)}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }
    record = provenance(args.seed, load_start)
    record.update(workload=args.workload, trace=int(ctx.trace),
                  wall_s=round(time.perf_counter() - started, 3))
    print("provenance " + json.dumps(record, sort_keys=True))
    for note in outcome.notes:
        print(f"note: {note}")
    for name, metric in metrics.items():
        if ctx.trace and name not in outcome.metrics:
            continue
        print(f"{args.workload:16s} {name:36s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    print(f"{args.workload:16s} attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": metrics,
    }))
    return 0


def steadiness(args) -> int:
    """Repeat the workload with successive seeds and report the spread."""
    values: dict[str, list[float]] = {}
    failed = 0
    for i in range(args.steadiness):
        command = [sys.executable, __file__, "--workload", args.workload,
                   "--seed", str(args.seed + i), "--seconds",
                   str(args.seconds), "--trace", "0"]
        if args.smoke:
            command.append("--smoke")
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"run {i + 1}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}: {args.steadiness} runs, {failed} failed "
          f"operations")
    print(f"{'metric':24s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'iqr/median':>10s}")
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        print(f"{name:24s} {mid:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{(q3 - q1) / mid:10.3%}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
