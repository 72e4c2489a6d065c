"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per (workload, repetition) so that every
repetition pays the same cold import, allocator and cache state, and
``ru_maxrss`` is that run's alone.  Everything before ``system.run()`` —
importing ``repro``, generating trace and queries, constructing the system —
is ``setup_s``; the timed region is exactly ``system.run(queries=...)``.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "quick"), default="full")
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untraced-wall", type=float, default=None,
                        help="untraced wall_s of this workload (required with --traced 1)")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    import endtoend
    import workloads

    tracer = None
    if args.traced:
        import layers
        from tracer import Tracer

        # Wrappers go in before construction: the network captures bound
        # methods (proxy.on_receive, sensor.handle_packet) when cells are built.
        import repro.core  # noqa: F401  (loads every module that imports a target by name)

        tracer = Tracer(record_spans=args.trace_out is not None)
        tracer.install(layers.TARGETS)

    system, queries, horizon = workloads.build(args.workload, args.seed, args.scale)
    setup_s = time.perf_counter() - _STARTED

    if tracer is not None:
        tracer.start()
    started = time.perf_counter()
    report = system.run(queries=queries)
    wall_s = time.perf_counter() - started
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()

    issued = sum(1 for query in queries if query.arrival_time < horizon)
    attempted, failed = endtoend.operations(report, issued)
    coding = getattr(report, "coding", None)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.traced),
        # canonical form of everything simulated: must not depend on tracing
        # or on which repetition this is
        "summary": json.dumps(report.summary(), sort_keys=True),
        "end_to_end": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "sim_s_per_wall_s": horizon / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **endtoend.simulated_metrics(report, issued),
        },
        "facts": {
            "issued": issued,
            "answers": len(report.answers),
            "attempted": attempted,
            "failed": failed,
            "failovers": getattr(report, "failovers", 0),
            "unroutable": getattr(report, "unroutable", 0),
            "coding_decodes": coding.decodes if coding else 0,
            "coding_irrecoverable": coding.irrecoverable if coding else 0,
            "coding_shipped_bytes": coding.shipped_bytes if coding else 0,
            "coding_full_copy_bytes": coding.full_copy_bytes if coding else 0,
            "offload_moves": report.segments_offloaded,
            "aged_segments": report.archive_aged_segments,
        },
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer, report, args.untraced_wall)
        result["shares"] = {
            "write_path": layers.group_share(tracer, layers.WRITE_PATH),
            "sensing": layers.group_share(tracer, layers.SENSING),
            "read_path": layers.group_share(tracer, layers.READ_PATH),
            "sync_path": layers.group_share(tracer, layers.SYNC_PATH),
            "storage": layers.group_share(tracer, ("storage",)),
        }
        result["top_self"] = sorted(
            ((bucket, ns / 1e9) for bucket, ns in tracer.self_ns.items()),
            key=lambda item: -item[1],
        )[:8]
        if args.trace_out is not None:
            tracer.write_spans(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
