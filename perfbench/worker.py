"""Child process of the benchmark: set up one workload, then run and check it.

``run.py`` starts it in a fresh interpreter with ``POM_SIM_THREADS=1``::

    python3 perfbench/worker.py --work .perfbench/dynamics-seed0-trace0 \\
        --workload dynamics --seed 0 --seconds 25 --trace 0 [--setup-only] [--smoke]

It prints ``READY`` as soon as set-up is done, so the parent can time set-up
from the moment it started the process.  Then it probes the host speed once
(``workloads.host_scale``) to scale that set-up time, and prints its raw
results as one JSON line last.

Untraced (``--trace 0``): run units until ``--seconds`` of timed work and at
least ``MIN_SAMPLES`` runs are done (or ``MIN_SAMPLES`` runs failed, or three
times ``--seconds`` of wall time passed).  Traced (``--trace 1``): run the fixed
prefix of ``PREFIX_UNITS`` units untraced, then again with the tracer
installed, and compare the two passes' digests and speed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the checkout's pomsim, not an installed one

import numpy  # noqa: E402
import pomsim  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Units in the digest prefix, which is also the traced pass.  Sized so that
# the prefix takes a few seconds untraced.
PREFIX_UNITS = {"dynamics": 5, "sweep": 1, "cliff": 8}
# run_ms_tail is the 75th percentile; 40 samples leave 10 beyond it.
MIN_SAMPLES = 40


def sim_seeds(workload: str, seed: int):
    """The simulation seeds a workload runs, made from the benchmark's seed alone."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1_000_000)


def measure(workload, seeds, span, prefix: int, units=None, seconds=0.0, tracer=None) -> dict:
    """Run units in order, the first `prefix` of them observed for the digest."""
    observed = workloads.Observed()
    timer = workloads.Timer()
    totals = dict(blocks=0, attempted=0, failed=0, problems=[])
    done = 0
    start = time.perf_counter()
    workload.install()
    try:
        while True:
            if units is not None and done >= units:
                break
            if units is None and done >= prefix and (
                (timer.raw_s >= seconds and len(timer.samples) >= MIN_SAMPLES)
                or totals["failed"] >= MIN_SAMPLES  # broken: stop rather than spin
                or time.perf_counter() - start > 3 * seconds  # very slow: fewer samples
            ):
                break
            if tracer is not None:
                tracer.run_id = done
            res = workload.unit(next(seeds), timer, observed if done < prefix else None, span)
            totals["blocks"] += res.blocks
            totals["attempted"] += res.attempted
            totals["failed"] += res.failed
            totals["problems"] += res.problems
            done += 1
    finally:
        workload.close()
    totals.update(
        problems=totals["problems"][:20],
        units=done,
        raw_timed_s=timer.raw_s,
        ref_timed_s=timer.ref_s,
        samples_s=timer.samples,
        ref_samples_s=timer.ref_samples,
        probe_median_s=statistics.median(timer.probes),
        probes=len(timer.probes),
        digest=observed.hasher.hexdigest(),
        digest_runs=observed.runs,
        counts={
            "simulator.csv_bytes": observed.csv_bytes,
            "agents.active_changes": observed.active_changes,
            "agents.pom_penalized_wins": observed.pom_penalized_wins,
            "agents.pom_withheld": observed.pom_withheld,
        },
    )
    return totals


def alloc_peak_mb(config) -> float:
    """tracemalloc peak of one untraced, untimed run."""
    tracemalloc.start()
    try:
        pomsim.simulator.run(config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--work", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    work = Path(args.work)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()  # set-up spans: config.load_config, reward_curve.calibrate_schedule
    workload = workloads.WORKLOADS[args.workload](ROOT, work, args.smoke)
    print("READY", flush=True)
    setup_scale = workloads.host_scale()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0

    prefix = PREFIX_UNITS[args.workload]
    seeds = functools.partial(sim_seeds, args.workload, args.seed)
    no_span = contextlib.nullcontext
    if tracer is None:
        result = measure(workload, seeds(), no_span, prefix, seconds=args.seconds)
    else:
        tracer.uninstall()
        result = measure(workload, seeds(), no_span, prefix, units=prefix)
        tracer.install()
        traced = measure(workload, seeds(), tracer.span, prefix, units=prefix, tracer=tracer)
        tracer.uninstall()
        tracer.write(work / "spans.csv")
        untraced_bps = result["blocks"] / result["ref_timed_s"]
        traced_bps = traced["blocks"] / traced["ref_timed_s"]
        layers = tracing.layer_metrics(tracer, traced["blocks"])
        layers.update(traced["counts"])
        layers.update(
            {
                "simulator.alloc_peak_mb": alloc_peak_mb(workload.sample_config(next(seeds()))),
                "trace.blocks_per_s": traced_bps,
                "trace.untraced_blocks_per_s": untraced_bps,
                "trace.overhead": untraced_bps / traced_bps,
            }
        )
        if traced["digest"] != result["digest"]:
            result["problems"].append(
                f"traced digest {traced['digest']} != untraced digest {result['digest']}"
            )
        for key in ("attempted", "failed"):
            result[key] += traced[key]
        result["problems"] += traced["problems"]
        result.update(layers=layers, absent=tracer.absent)

    result.update(
        setup_scale=setup_scale,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        versions={
            "pomsim": pomsim.__version__,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        pom_sim_threads=os.environ.get("POM_SIM_THREADS"),
        unchecked=[workloads.UNCHECKED],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
