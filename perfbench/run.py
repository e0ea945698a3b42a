"""pomsim benchmark: end-to-end metrics per workload, or per-layer metrics from a traced pass.

Run from the root of a pomsim checkout::

    python3 perfbench/run.py --workload dynamics --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload, one table
    python3 perfbench/run.py --smoke                        # tiny sizes, all workloads, both passes

Each workload runs in fresh child processes (``worker.py``) with
``POM_SIM_THREADS=1``: ``SETUP_PROCESSES - 1`` that only set up, to time
set-up, then one that sets up and measures.  The last line printed is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metric names and units are the ones in ``BENCHMARK.json``.
Everything else (provenance, digests, counts, problems) is printed above it
and written to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import nearest_rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dynamics", "sweep", "cliff")
SETUP_PROCESSES = 5
TAIL_Q = 0.75  # worker.MIN_SAMPLES runs leave at least 10 samples beyond it
DEADLINE_S = 170.0  # per workload; the whole invocation must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _run_child(cmd, env, deadline: float) -> tuple[float, bytes]:
    """Run a worker; return (seconds from start until it printed READY, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        fd = proc.stdout.fileno()
        head = b""
        while b"\n" not in head:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError(f"timed out waiting for set-up: {cmd}")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            head += chunk
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not head.startswith(b"READY\n"):
        raise BenchError(f"worker exited with {proc.returncode}: {cmd}")
    return ready, head + rest


def _last_json(out: bytes) -> dict:
    return json.loads(out.decode().strip().splitlines()[-1])


def _source_digest() -> str:
    """Identifies the code and inputs under test: src/ and configs/."""
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("configs/*.json")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _record_digest(key: str, digest: str) -> tuple[list[str], list[str]]:
    """Compare with earlier runs of the same inputs; return (problems, changed)."""
    store_path = ROOT / ".perfbench" / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    seen = store.setdefault(key, {})
    source = _source_digest()
    problems, changed = [], []
    if seen.get(source, digest) != digest:
        problems.append(f"digest differs from an earlier run of the same code: {seen[source]}")
    changed = [f"source {s[:12]}: {d}" for s, d in seen.items() if s != source and d != digest]
    seen[source] = digest
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems, changed


def bench(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer" if trace else "end_to_end"]
    tag = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}"
    work = ROOT / ".perfbench" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, POM_SIM_THREADS="1")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--work", str(work),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])

    load_start = os.getloadavg()
    setups = []  # (seconds until READY, host scale measured right after)
    for _ in range(0 if trace or smoke else SETUP_PROCESSES - 1):
        ready, out = _run_child(cmd + ["--setup-only"], env, deadline)
        setups.append((ready, _last_json(out)["setup_scale"]))
    ready, out = _run_child(cmd, env, deadline)
    raw = _last_json(out)
    setups.append((ready, raw["setup_scale"]))
    load_end = os.getloadavg()

    problems = list(raw["problems"])
    if raw["pom_sim_threads"] != "1":
        problems.append(f"POM_SIM_THREADS was {raw['pom_sim_threads']!r}, not 1")
    digest_key = f"{workload}/seed{seed}/{'smoke' if smoke else 'full'}"
    repeat_problems, changed = _record_digest(digest_key, raw["digest"])
    problems += repeat_problems

    attempted, failed = raw["attempted"], raw["failed"]
    if not raw["samples_s"]:
        raise BenchError(f"{workload}: no run completed; problems: {problems}")
    samples_ms = [s * 1e3 for s in raw["ref_samples_s"]]
    raw_ms = [s * 1e3 for s in raw["samples_s"]]
    if trace:
        values = raw["layers"]
    else:
        values = {
            "setup_s": statistics.median(t * scale for t, scale in setups),
            "blocks_per_s": raw["blocks"] / raw["ref_timed_s"],
            "run_ms_p50": statistics.median(samples_ms),
            "run_ms_tail": nearest_rank(samples_ms, TAIL_Q),
            "peak_rss_mb": raw["rss_mb"],
            "pass_share": (attempted - failed) / attempted,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    # layer figures that only `sweep` exercises: printed and kept, not benchmark metrics
    extra = {k: v for k, v in values.items() if k not in metrics}
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "metrics": metrics,
        "extra_layer_ms": extra,
        "samples": {
            "setup_processes": len(setups),
            "runs": len(samples_ms),
            "tail_percentile": round(TAIL_Q * 100),
            "blocks": raw["blocks"],
            "timed_s": raw["raw_timed_s"],
            "probes": raw["probes"],
            "probe_median_ms": raw["probe_median_s"] * 1e3,
        },
        "unscaled": {
            "setup_s": statistics.median(t for t, _ in setups),
            "blocks_per_s": raw["blocks"] / raw["raw_timed_s"],
            "run_ms_p50": statistics.median(raw_ms) if raw_ms else None,
            "run_ms_tail": nearest_rank(raw_ms, TAIL_Q) if raw_ms else None,
        },
        "digest": {
            "sha256": raw["digest"],
            "runs": raw["digest_runs"],
            "output_changed": changed,
        },
        "counts": raw["counts"],
        "absent": raw.get("absent", []),
        "problems": problems,
        "unchecked": raw["unchecked"],
        "provenance": {
            **raw["versions"],
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": load_end,
            "workload_seed": seed,
            "runs": attempted,
            "units": raw["units"],
            "seconds": seconds,
            "pom_sim_threads_forced": raw["pom_sim_threads"] == "1",
            "smoke": smoke,
        },
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    return report


def _print_report(r: dict) -> None:
    s = r["samples"]
    print(
        f"== {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
        f"runs {r['attempted']}  failed {r['failed']} (fail_share {r['fail_share']:.3g})  "
        f"correct {r['correct']}"
    )
    notes = {
        "setup_s": f"median of {s['setup_processes']} fresh processes",
        "blocks_per_s": f"{s['blocks']} blocks in {s['timed_s']:.3f} s timed",
        "run_ms_p50": f"n={s['runs']}",
        "run_ms_tail": f"p{s['tail_percentile']}, n={s['runs']}",
        "pass_share": "1 - fail_share",
    }
    for name, m in r["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"   {name:34s} {value:>14s} {m['unit']:10s} {notes.get(name, '')}")
    for name, value in r["extra_layer_ms"].items():
        value = "not run" if value is None else f"{value:.6g}"
        print(f"   {name:34s} {value:>14s} {'ms':10s} sweep only; not in BENCHMARK.json")
    u = r["unscaled"]
    if not r["trace"]:
        print(
            f"   unscaled wall time: setup_s {u['setup_s']:.6g}, "
            f"blocks_per_s {u['blocks_per_s']:.6g}, run_ms_p50 "
            f"{u['run_ms_p50']:.6g}, run_ms_tail {u['run_ms_tail']:.6g}; host probe median "
            f"{s['probe_median_ms']:.4g} ms over {s['probes']} probes"
        )
    d = r["digest"]
    print(f"   digest sha256 {d['sha256']} over the first {d['runs']} runs")
    for line in d["output_changed"]:
        print(f"   output changed vs {line}")
    for name, value in r["counts"].items():
        print(f"   count {name} = {value!r}")
    for site in r["absent"]:
        print(f"   absent call site {site}")
    for p in r["problems"]:
        print(f"   PROBLEM {p}")
    for note in r["unchecked"]:
        print(f"   unchecked: {note}")
    print(f"   provenance {json.dumps(r['provenance'], sort_keys=True)}")


def _result_line(r: dict) -> dict:
    return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both passes")
    args = p.parse_args(argv)

    missing = [f for f in ("src/pomsim/__init__.py", "configs/dynamics.json",
                           "configs/price_step.json") if not (ROOT / f).is_file()]
    if missing:
        print(f"error: not a pomsim checkout, missing {missing} under {ROOT}", file=sys.stderr)
        return 2

    try:
        if args.smoke:
            return _smoke(args.seed)
        if args.workload != "all":
            r = bench(args.workload, args.seed, args.seconds, args.trace, smoke=False)
            _print_report(r)
            print(json.dumps(_result_line(r)))
            return 0
        reports = [bench(w, args.seed, args.seconds, args.trace, False) for w in WORKLOADS]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        _print_report(r)
    print(json.dumps({r["workload"]: _result_line(r) for r in reports}))
    return 0


def _smoke(seed: int) -> int:
    """Every workload at tiny size, untraced and traced; 0 when all are correct and complete."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for trace in (0, 1):
        wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        for workload in WORKLOADS:
            r = bench(workload, seed, 0.5, trace, smoke=True)
            _print_report(r)
            values = r["metrics"]
            ok &= r["correct"] and set(values) == wanted
            if not trace:
                ok &= all(m["value"] > 0 for m in values.values())
    print("smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
