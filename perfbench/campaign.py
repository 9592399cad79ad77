"""Run one oamem campaign through the CLI entry point in this interpreter.

usage: campaign.py SUBCOMMAND CONFIG OUT RESULT_JSON [--parallel N] [--trace]

Writes RESULT_JSON with the monotonic time at which the process was
ready (``oamem`` and its CLI imported, config loaded and validated), the wall and
CPU seconds of the runner call, the peak resident memory and, with
``--trace``, the per-layer summary and spans.  Exits with the CLI's code.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from oamem import cli
from oamem.config import load_config


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("subcommand")
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("result")
    parser.add_argument("--parallel", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    load_config(args.config)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    kind, _ = cli.SUBCOMMANDS[args.subcommand]
    runner = cli.RUNNERS[kind]
    timing = {}

    def timed_runner(*a, **kw):
        wall, cpu, ns = time.perf_counter(), time.process_time(), time.perf_counter_ns()
        try:
            return runner(*a, **kw)
        finally:
            timing["campaign_s"] = time.perf_counter() - wall
            timing["campaign_cpu_s"] = time.process_time() - cpu
            timing["window_ns"] = (ns, time.perf_counter_ns())

    cli.RUNNERS[kind] = timed_runner
    code = cli.main([args.subcommand, "--config", args.config, "--out", args.out,
                     "--parallel", str(args.parallel)])
    result = {"ready_monotonic": ready, "exit_code": code,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
              **timing}
    if tracer is not None and "window_ns" in timing:
        tracer.runner_window = timing["window_ns"]
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
