"""Experiment runner CLI: curve tables, seeded sweeps, paired comparisons."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config, schedule_from_dict
from .errors import ConfigError, InternalError, PomSimError
from .metrics import ComparisonDeltas, compare
from .reward_curve import base_reward, calibrate_schedule, cutoff_factor, reward
from .simulator import RunSummary, read_series_csv, run, schedule_max, write_rows, write_series_csv

EXIT_USAGE = 2
EXIT_INTERNAL = 3
MAX_CURVE_ROWS = 1_000_000


def _curve_rows(schedule, lo, step, rows):
    for i in range(rows):
        d = lo + i * step
        cf = cutoff_factor(d, schedule.cutoff) if schedule.cutoff else 1.0
        yield d, base_reward(d, schedule.base), cf, reward(d, schedule)


def cmd_curve(args) -> int:
    if args.params and len(args.params) not in (3, 5):
        print("error: --params needs A B SCALE or A B SCALE D_CO SPREAD", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.landmarks:
            schedule = calibrate_schedule(*args.landmarks, args.r_max, b_ratio=args.b_ratio)
        else:
            keys = ["a", "b", "scale", "d_co", "spread"]
            schedule = schedule_from_dict(dict(zip(keys, args.params)))
    except PomSimError as exc:  # the arguments describe no valid schedule
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    lo, hi = args.range
    if not (0.0 <= lo < hi < math.inf and 0.0 < args.step < math.inf):
        print(f"error: bad range/step: range=({lo}, {hi}) step={args.step}", file=sys.stderr)
        return EXIT_USAGE
    steps = (hi - lo) / args.step * (1.0 + 1e-9)  # inf where the count overflows a float
    if not steps < MAX_CURVE_ROWS:
        print(f"error: range/step give more than {MAX_CURVE_ROWS:,} rows", file=sys.stderr)
        return EXIT_USAGE

    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as f:
        rows = _curve_rows(schedule, lo, args.step, int(steps) + 1)
        write_rows(f, ["d", "base", "cutoff_factor", "reward"], rows)

    if args.landmarks:
        peak_d, half_d, tenth_d = args.landmarks
        d_star, r_max = schedule_max(schedule)
        print(f"# landmark verification (r_max={r_max:.6g} at d={d_star:.6g})", file=sys.stderr)
        print(f"#   I    peak     d={peak_d:<6g} found d_star={d_star:g}", file=sys.stderr)
        print(
            f"#   II   half-max d={half_d:<6g} reward/max={reward(half_d, schedule) / r_max:.4f}",
            file=sys.stderr,
        )
        print(
            f"#   III  tenth    d={tenth_d:<6g} reward/max={reward(tenth_d, schedule) / r_max:.4f}",
            file=sys.stderr,
        )
    return 0


def _json_text(path: Path, obj: dict) -> str:
    """`obj` as sorted, indented JSON for `path`; a non-finite number is an `InternalError`."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON has no Infinity or NaN
        keys = [k for k, v in obj.items() if isinstance(v, float) and not math.isfinite(v)]
        raise InternalError(f"{path}: {', '.join(keys) or exc} not finite") from exc


def _run_one(config, seed: int, out_dir: str) -> dict:
    cfg = dataclasses.replace(config, seed=seed)
    series = run(cfg)
    run_dir = Path(out_dir) / f"seed_{seed}"
    summary = {"seed": seed, "config_digest": series.config_digest}
    summary.update(dataclasses.asdict(series.summary))
    # checked before either file is written, so a failed seed leaves no partial run
    text = _json_text(run_dir / "summary.json", summary)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_series_csv(series, run_dir / "blocks.csv")
    (run_dir / "summary.json").write_text(text, encoding="utf-8")
    return summary


def _median(rows: list, key: str | int) -> float | None:
    """The median of `key` over the rows where it is not None; None if there are none.
    The mean of two middle values may overflow to inf, which the JSON writer reports."""
    vals = [r[key] for r in rows if r[key] is not None]
    with np.errstate(over="ignore"):
        return float(np.median(vals)) if vals else None


def cmd_run(args) -> int:
    if args.seeds < 1:
        print("error: --seeds must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.base_seed is not None and args.base_seed < 0:
        print("error: --base-seed must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    threads = os.environ.get("POM_SIM_THREADS", "1")
    try:
        workers = int(threads)
    except ValueError:
        workers = 0
    if workers < 1:
        print(f"error: POM_SIM_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        config = load_config(args.config)
    except (OSError, ConfigError, PomSimError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    base_seed = args.base_seed if args.base_seed is not None else config.seed
    seeds = list(range(base_seed, base_seed + args.seeds))
    Path(args.out).mkdir(parents=True, exist_ok=True)

    try:
        if workers > 1 and len(seeds) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
                summaries = list(pool.map(_run_one, [config] * len(seeds), seeds, [args.out] * len(seeds)))
        else:
            summaries = [_run_one(config, s, args.out) for s in seeds]
    except PomSimError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    aggregate = {
        "config_digest": summaries[0]["config_digest"],
        "seeds": seeds,
        **{f"median_{f.name}": _median(summaries, f.name) for f in dataclasses.fields(RunSummary)},
        "runs": summaries,
    }
    path = Path(args.out) / "aggregate.json"
    path.write_text(_json_text(path, aggregate), encoding="utf-8")
    return 0


def _seed_runs(dir_path: Path) -> dict[int, Path]:
    """Each `seed_{n}/blocks.csv` under `dir_path`, by n; a directory whose name is not
    exactly `seed_{n}` for the int n it parses to (`seed_01`, `seed_1_0`) is skipped."""
    found = {}
    for sub in sorted(dir_path.glob("seed_*")):
        try:
            seed = int(sub.name.removeprefix("seed_"))
        except ValueError:
            continue
        if sub.name == f"seed_{seed}" and (sub / "blocks.csv").is_file():
            found[seed] = sub / "blocks.csv"
    return found


def cmd_compare(args) -> int:
    base_dir, treat_dir = Path(args.baseline), Path(args.treatment)
    base_runs = _seed_runs(base_dir)
    treat_runs = _seed_runs(treat_dir)
    if not base_runs or not treat_runs:
        print("error: no seed_*/blocks.csv runs found", file=sys.stderr)
        return EXIT_USAGE
    missing = sorted(set(base_runs) ^ set(treat_runs))
    if missing:
        print(f"error: seed mismatch between directories; unmatched seeds: {missing}", file=sys.stderr)
        return EXIT_USAGE

    rows = []
    try:  # unreadable runs, mismatched horizons and a burn-in outside the series
        for seed in sorted(base_runs):
            base = read_series_csv(base_runs[seed])
            treat = read_series_csv(treat_runs[seed])
            deltas = compare(base, treat, args.burn_in)
            rows.append((seed, *dataclasses.astuple(deltas)))
    except PomSimError as exc:
        print(f"error: seed {seed}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    header = ["seed", *(f.name for f in dataclasses.fields(ComparisonDeltas))]
    medians = [_median(rows, k) for k in range(1, len(header))]
    for k, m in enumerate(medians, 1):  # as in aggregate.json; a nan ratio from a seed stays
        if not math.isfinite(m) and all(math.isfinite(r[k]) for r in rows):
            raise InternalError(f"median {header[k]} not finite")
    with open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout) as f:
        write_rows(f, header, [*rows, ("median", *medians)])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pomsim", description=__doc__)
    p.add_argument("--version", action="version", version=f"pomsim {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("curve", help="tabulate the reward curve and verify landmarks")
    group = pc.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--landmarks",
        nargs=3,
        type=float,
        metavar=("PEAK_D", "HALF_D", "TENTH_D"),
        help="calibrate the schedule from the three landmark difficulties",
    )
    group.add_argument(
        "--params",
        nargs="+",
        type=float,
        metavar="V",
        help="explicit schedule: A B SCALE [D_CO SPREAD]",
    )
    pc.add_argument("--r-max", type=float, default=1.0, help="maximum reward for --landmarks")
    pc.add_argument("--b-ratio", type=float, default=4.0, help="b/a ratio used by calibration")
    pc.add_argument("--range", nargs=2, type=float, default=(0.0, 3.0), metavar=("LO", "HI"))
    pc.add_argument("--step", type=float, default=0.01)
    pc.add_argument("--out", help="write the CSV table here instead of stdout")
    pc.set_defaults(func=cmd_curve)

    pr = sub.add_parser("run", help="run a seeded simulation sweep")
    pr.add_argument("--config", required=True)
    pr.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    pr.add_argument("--base-seed", type=int, default=None, help="first seed (default: config seed)")
    pr.add_argument("--out", required=True, help="output directory")
    pr.set_defaults(func=cmd_run)

    pp = sub.add_parser("compare", help="paired per-seed comparison of two sweep directories")
    pp.add_argument("baseline")
    pp.add_argument("treatment")
    pp.add_argument("--burn-in", type=int, default=None, help="blocks to drop (default: 20%%)")
    pp.add_argument("--out", help="write comparison CSV here instead of stdout")
    pp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PomSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError,
            PermissionError) as exc:  # an --out that cannot be written; the message names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
