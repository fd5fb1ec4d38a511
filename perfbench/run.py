"""perfbench: the traffic map's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload build-paper --seed 1 \
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``build-paper`` — plain, checkpointed and resumed builds of the
  paper-scale world;
* ``churn-paper`` — delta rebuilds after seeded activity swings;
* ``serve-hot``   — keep-alive HTTP clients replaying a repeated query
  mix (answer-cache hits);
* ``serve-cold``  — a new connection per request, never-repeated keys
  (answer-cache misses). Runnable, but left out of ``BENCHMARK.json``:
  it keeps both cores of a two-core virtual machine busy, so CPU time
  the hypervisor steals in some runs moves its figures by more than any
  allowed bound.

Every workload reports the same end-to-end metrics about its unit
operation (a rebuild cycle, a churn step, an HTTP request): ``p50_ms``,
``p99_ms`` (the highest percentile up to p99 with ten samples beyond
it, else the slowest operation), ``qps`` (operations per second),
``setup_s`` and ``peak_rss_mb``. ``--trace 1`` reports the per-layer
metrics instead, from a run whose layers are traced, with the tracing
overhead. The last line of standard output is the result object; the
line before it holds the details (sample counts, tail bases, per-kind
build times, the request latency split, the environment).

``--scale small`` and ``--tamper-digest`` exist for the self-test
(``python3 perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from harness import (Context, SetupError, WorkDir, cpu_steal_s,
                     environment, import_program, result_line)

WORKLOADS = ("build-paper", "churn-paper", "serve-hot", "serve-cold")


def run_workload(name: str, ctx):
    import builds
    import serving
    if name == "build-paper":
        return builds.build_paper(ctx)
    if name == "churn-paper":
        return builds.churn_paper(ctx)
    return serving.serve(ctx, hot=name == "serve-hot")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "default"),
                        default="default")
    parser.add_argument("--tamper-digest", action="store_true",
                        help="compare against a wrong digest (self-test)")
    args = parser.parse_args(argv)
    try:
        import_program()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    steal_before = cpu_steal_s()
    with WorkDir() as workdir:
        ctx = Context(args.scale, args.seed, args.seconds,
                      bool(args.trace), args.tamper_digest, workdir)
        run = run_workload(args.workload, ctx)
    run.details["run_s"] = time.perf_counter() - started
    run.details["environment"] = environment(
        args.seed, args.workload, args.scale, args.seconds,
        bool(args.trace))
    if steal_before is not None:
        run.details["environment"]["cpu_steal_s"] = \
            cpu_steal_s() - steal_before
    run.details["problems"] = run.problems
    line = result_line(run, bool(args.trace))
    print(json.dumps({"perfbench_details": run.details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
