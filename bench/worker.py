"""One cold run of one workload, in a fresh Python process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and ``WRSP_THREADS``
cleared, so the series cache, the per-context caches and the
``get_context`` cache start cold, as they do in a user's ``wrsp`` process.
Prints one JSON object as its last line of standard output.

    python3 bench/worker.py --workload W --seed N --work DIR [--setup-only]
                            [--trace --spans PATH]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for output files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    args = parser.parse_args(argv)
    goldens = workloads.load_goldens()

    t0 = perf_counter()
    import wrsp
    import wrsp.cli  # noqa: F401  (the CLI module is part of the package set-up)
    import wrsp.engine
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for k in workloads.LEVELS[args.workload]:
        wrsp.engine.get_context(k)
    setup_s = perf_counter() - t0
    out = {"setup_s": setup_s}
    if not args.setup_only:
        t1 = perf_counter()
        results = workloads.RUN[args.workload](args.seed, args.work)
        out["wall_s"] = perf_counter() - t1
        failures = workloads.CHECK[args.workload](results, goldens)
        out["attempted"] = workloads.operation_count(args.workload)
        out["failures"] = failures
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, goldens["claims-k4"])
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
