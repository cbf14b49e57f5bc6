"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --src SRC --workload W --seed S [--trace PATH]
    python3 perfbench/worker.py --src SRC --setup-only

Every ginshift invocation pays graph enumeration and cold caches, and the
module-level caches (``_ELEMENTARY_CACHE``, the ``_component`` lru_cache,
per-coordinate-change minor tables) would carry over into a second pass in
the same process, which would then measure a different program. So a worker
makes exactly one pass and no warm-up pass.

Times are CPU seconds of this process (``time.process_time``). The worker
runs one thread, so on an idle core CPU time equals wall time; unlike wall
time it leaves out the time a shared host takes the core away. With
``--probe`` the worker also samples the machine's speed (``speed.py``), and
``setup_s`` and ``run_s`` are CPU times at the reference speed; the
measured ``cpu_s`` and ``wall_s`` are reported alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", metavar="PATH",
                    help="record spans and write them to PATH (.npz)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="scale times to the reference machine speed")
    args = ap.parse_args()

    start, wall = time.process_time(), time.perf_counter()
    import ginshift.cli  # noqa: F401  (imports every module)
    setup_s = time.process_time() - start
    setup_wall_s = time.perf_counter() - wall
    import ginshift
    src = os.path.realpath(args.src)
    if not os.path.realpath(ginshift.__file__).startswith(src + os.sep):
        print(f"ginshift was imported from {ginshift.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import speed
    if args.probe:
        setup_s *= speed.scale_now()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    import tracer as tracing
    import workloads

    data = workloads.inputs(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(
            f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        tracing.install(tracer)
    output, error = None, None
    probe = speed.Probe() if args.probe else contextlib.nullcontext()
    with probe:
        start, wall = time.process_time(), time.perf_counter()
        try:
            output = workloads.run(args.workload, data)
        except Exception:  # a raised item fails the whole pass
            error = traceback.format_exc()
        cpu_s = time.process_time() - start
        wall_s = time.perf_counter() - wall
        if args.probe:  # the samples are not the pass's work
            cpu_s -= probe.spent_s
            wall_s -= probe.spent_s
    doc = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "cpu_s": cpu_s,
           "wall_s": wall_s, "run_s": cpu_s}
    if args.probe:
        doc.update(run_s=cpu_s * probe.scale(), probes=len(probe.samples))
    if tracer is not None:
        not_restored = tracer.uninstall()
        if not_restored:
            error = (error or "") + f"tracer left {not_restored} patched\n"
        if tracer.missing:
            print(f"not traced, absent from the package: {tracer.missing}",
                  file=sys.stderr)
        tracer.write(args.trace)
        doc["layers"] = tracer.metrics()
        doc["spans"] = len(tracer.span_start)
    if error is None:
        result = workloads.check(args.workload, output)
        doc.update(attempted=result.attempted, failed=result.failed,
                   digest=result.digest)
    else:  # the caller fails every item of this pass
        print(error, file=sys.stderr)
        doc["error"] = True
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
