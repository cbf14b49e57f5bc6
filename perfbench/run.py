"""The ginshift benchmark.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.

``--trace 0`` measures the end-to-end metrics. It runs passes, each in a
fresh worker process, for as long as another pass still fits in
``--seconds``; at least one pass always runs. Before and after the passes
it starts SETUP_SAMPLES workers in all that only import ``ginshift.cli``.
Every metric is the median over the workers that measured it (set-up over
all of them). Times are the workers' CPU seconds at a reference machine
speed (see ``worker.py`` and ``speed.py``); the measured wall and CPU times
are printed in the human-readable lines.

``--trace 1`` runs one untraced pass and one traced pass, each in a fresh
worker, and reports the per-layer metrics of the traced pass; its spans go
to ``.bench_out/``. The tracing overhead is the traced ``run_s`` minus the
untraced one.

Every pass is checked: items that fail their check are counted, and the
digest of the seed-independent output must equal the one in
``reference.json`` (and, with tracing, the untraced pass's digest).

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER, table_mismatches

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_SAMPLES = 8
#: the whole run must end within 180 s; workers get what is left of this
DEADLINE_S = 165


def worker(src: str, deadline: float, *extra: str) -> dict | None:
    """Run one fresh worker; None if it crashed or ran out of time."""
    # the package makes no BLAS calls; one thread keeps CPU time = busy time
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", src,
           *extra]
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(extra)}", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"worker failed ({done.returncode}): {' '.join(extra)}\n"
              f"{done.stderr}", file=sys.stderr)
        return None
    if done.stderr:
        print(done.stderr, file=sys.stderr, end="")
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(passes: list[dict | None], reference: dict):
    """(correct, attempted, failed) over all passes of a run; a pass that
    raised, crashed or timed out fails all of its items."""
    attempted = failed = 0
    correct = bool(passes)
    for p in passes:
        if p is None or p.get("error"):
            attempted += reference["items"]
            failed += reference["items"]
            correct = False
            continue
        attempted += p["attempted"]
        failed += p["failed"]
        correct = correct and p["digest"] == reference["digest"]
    return correct and failed == 0, attempted, failed


def setup_samples(src, deadline, count) -> list[dict]:
    done = [worker(src, deadline, "--setup-only", "--probe")
            for _ in range(count)]
    return [p for p in done if p is not None]


def measure(src, workload, seed, seconds, deadline):
    # half the set-up samples before the passes and half after, so that
    # their median spans the run rather than the machine's state at its start
    setups = setup_samples(src, deadline, SETUP_SAMPLES // 2)
    passes = []
    start = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        passes.append(worker(src, deadline, "--workload", workload,
                             "--seed", str(seed), "--probe"))
        longest = max(longest, time.monotonic() - t0)
        if passes[-1] is None or passes[-1].get("error") or \
                time.monotonic() - start + longest > seconds:
            break
    setups += setup_samples(src, deadline, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    done = [p for p in passes if p is not None and not p.get("error")]
    setups += done
    metrics = {}
    if done:
        print(f"{workload} wall time: set-up median "
              f"{statistics.median(p['setup_wall_s'] for p in setups):.6g} s, "
              f"pass median "
              f"{statistics.median(p['wall_s'] for p in done):.6g} s; pass "
              f"CPU time before scaling: median "
              f"{statistics.median(p['cpu_s'] for p in done):.6g} s; "
              f"speed samples per pass: median "
              f"{statistics.median(p['probes'] for p in done):g}")
        samples = {
            "setup_s": ([p["setup_s"] for p in setups], "s"),
            "run_s": ([p["run_s"] for p in done], "s"),
            "items_per_s": ([p["attempted"] / p["run_s"] for p in done],
                            "items/s"),
            "peak_rss_mb": ([p["peak_rss_mb"] for p in done], "MB"),
            "passed_frac": ([1 - p["failed"] / p["attempted"] for p in done],
                            "ratio"),
        }
        for name, (values, unit) in samples.items():
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"{workload} {name} = {statistics.median(values):.6g} "
                  f"{unit} (median of {len(values)}, range "
                  f"{min(values):.6g} to {max(values):.6g})")
    return passes, metrics


def trace(src, workload, seed, deadline):
    plain = worker(src, deadline, "--workload", workload, "--seed", str(seed))
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
    traced = worker(src, deadline, "--workload", workload,
                    "--seed", str(seed), "--trace", spans)
    passes = [plain, traced]
    metrics = {}
    if all(p is not None and not p.get("error") for p in passes):
        layers = dict(traced["layers"], **{
            "trace.run_s": traced["run_s"],
            "trace.overhead_s": traced["run_s"] - plain["run_s"]})
        for name, unit, _better in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            print(f"{workload} {name} = {layers[name]:.6g} {unit}")
        print(f"{workload} untraced run_s = {plain['run_s']:.6g} s, "
              f"traced {traced['run_s']:.6g} s, {traced['spans']} spans "
              f"written to {spans}")
        for line in table_mismatches(workload, layers):
            print(f"{workload} layer table: {line}")
        if traced["digest"] != plain["digest"]:
            print(f"{workload}: traced output differs from untraced output",
                  file=sys.stderr)
            traced["digest"] = None
    return passes, metrics


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        references = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(references))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ginshift", "cli.py")):
        print(f"no ginshift sources under {src}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    reference = references[args.workload]

    if args.trace:
        passes, metrics = trace(src, args.workload, args.seed, deadline)
    else:
        passes, metrics = measure(src, args.workload, args.seed,
                                  args.seconds, deadline)
    correct, attempted, failed = describe(passes, reference)
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items in {len(passes)} passes); "
          f"outputs {'match' if correct else 'DO NOT match'} the reference")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
