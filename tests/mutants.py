"""Planted one-line mutants of the kernel and its rules, and which tests kill them.

Each mutant is applied alone to a fresh copy of the repository (without
`.git`, `.hypothesis`, `.pytest_cache`, `__pycache__` or `.perfbench`, so every
run starts with an empty Hypothesis database), and a set of tests runs on the copy:

    python tests/mutants.py model              # every mutant against the model checks
    python tests/mutants.py --seed 1 suite margin-0 stall-ceiling-lt
    python tests/mutants.py --check            # each mutant applies and changes the program

`model` is the dense model's checks: the golden traces, `TestDenseModel`, the
per-pass property and the edge table; `table` is the edge table alone; `suite`
is the whole Tier-1 suite.  `model` and `table` judge only the kernel's rows
(`simulator.py`); the rows of the rule modules, calibration to the CLI, are
judged by `suite`.  Kinds: `output` changes some run's records or error;
`work` keeps every run's records but changes what the kernel does on the way
(calls, refreshes, stored toggles), which no check of output can see, but the
golden file's pinned `WORK` counts and the tests that count calls can;
`equivalent` differs from the source only at a tie or in a branch that no input
enters, where both forms give the same records and, on every pinned case, the
same work (its comment says why).  At seed 0, `suite` kills every `output` and
`work` row, and every `equivalent` row survives.  A source edit that moves a
mutated line must update its row here: `--check`, and `test_mutants.py` in
Tier-1, fail until it does.  They also fail on a mutant that does not parse or
leaves the parsed program as it was, so that no kill is a syntax error and no
survivor a no-op.
A run leaves `test_mutants.py` out: on a mutated copy it fails by design, since
the mutant's old text is gone, and would count every mutant as killed.
"""

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM, CURVE = "src/pomsim/simulator.py", "src/pomsim/reward_curve.py"
DIFF, AGENTS, METRICS = "src/pomsim/difficulty.py", "src/pomsim/agents.py", "src/pomsim/metrics.py"
CONFIG, CLI = "src/pomsim/config.py", "src/pomsim/cli.py"
# name, kind, file, old text (exactly once in the file), new text
MUTANTS = [
    ("exact-totals-unbounded", "output", SIM,
     "exact_totals = (max(1.0, h_hi) * 2.0**-200, min(2.0**200, h_lo * 2.0**199))",
     "exact_totals = (0.0, math.inf)"),
    ("certain-exits-from-m+1", "output", SIM, "leave, stay = on[m:], []", "leave, stay = on[m + 1:], []"),
    ("expiring-inactive-cost-lt-rate", "output", SIM, "e[4] <= rate and", "e[4] < rate and"),
    ("expiring-active-ge-hi", "output", SIM, "if e[0] > hi or", "if e[0] >= hi or"),
    ("expiring-inactive-key-lt-hi", "output", SIM, "elif e[1] <= hi", "elif e[1] < hi"),
    ("margin-0", "output", SIM, "_MARGIN = 1e-9", "_MARGIN = 0.0"),
    ("rate-window-open", "output", SIM, "_RATE_MIN, _RATE_MAX = 2.0**-800, 2.0**800",
     "_RATE_MIN, _RATE_MAX = 0.0, math.inf"),
    ("stall-ceiling-lt", "output", SIM, "min(map(_ON_COST, off)) <= rate", "min(map(_ON_COST, off)) < rate"),
    # a key at lo = x * (1 - margin) is then left unjudged, and its miner, earning about x,
    # stays as it would if judged
    ("band-low-bisect-right", "equivalent", SIM, "j = bisect_left(on, lo, key=_OFF_KEY)",
     "j = bisect_right(on, lo, key=_OFF_KEY)"),
    # they differ only when an off toggle sits at lo: that pair is kept until a later
    # compaction, and a pair ending at lo counts no block of any window from lo on
    ("compaction-bisect-left", "equivalent", SIM, "del t[: bisect_right(t, lo) & ~1]",
     "del t[: bisect_left(t, lo) & ~1]"),
    # with the last toggle at lo the full count is (b - lo) * now as well, so the records
    # hold; but each such tie takes the bisection that the shortcut spares
    ("window-shortcut-lt", "work", SIM, "t and t[-1] <= lo:", "t and t[-1] < lo:"),
    # a top key at lo is judged if the pass runs, and stays: skipping it flips nobody either
    ("quiet-skip-le", "equivalent", SIM, "on[-1][0] < lo)", "on[-1][0] <= lo)"),
    ("winner-bisect-left", "output", SIM, "k = bisect_right(cum, u)", "k = bisect_left(cum, u)"),
    ("compaction-odd", "output", SIM, "del t[: bisect_right(t, lo) & ~1]", "del t[: bisect_right(t, lo)]"),
    ("large-key-without-duty", "output", SIM, "mask = avail[large_idx]", "mask = state.active[large_idx]"),
    ("window-was-0", "output", SIM, "now, was = len(t) & 1, k & 1", "now, was = len(t) & 1, 0"),
    ("top-draw-branch-dropped", "output", SIM, "if k == len(cum):", "if False:"),
    ("duty-phase-le", "output", SIM, "live = phase < on", "live = phase <= on"),
    ("toggle-never-popped", "work", SIM, "if t and t[-1] == at:", "if False:"),
    ("stall-ceiling-dropped", "work", SIM,
     "k = len(off) if off and min(map(_ON_COST, off)) <= rate else 0", "k = len(off)"),
    ("quiet-skip-dropped", "work", SIM, "> hi):\n            return\n", "> hi):\n            pass\n"),
    ("margin-1e-3", "work", SIM, "_MARGIN = 1e-9", "_MARGIN = 1e-3"),
    ("exact-test-never", "work", SIM, "if exact and lo_total", "if False and lo_total"),
    ("refresh-every-quantum", "work", SIM, "if state.height >= state.refresh_at:", "if True:"),
    # the rules that the kernel calls
    ("golden-section-0.6", "output", CURVE, "_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0", "_GOLDEN = 0.6"),
    ("cutoff-spread-ln10", "output", CURVE, "LN9 = math.log(9.0)", "LN9 = math.log(10.0)"),
    ("cutoff-below-peak-allowed", "output", CURVE, "if not (self.cutoff.d_co > peak):", "if False:"),
    # with 0 <= a < b and d >= 0, rounding keeps -b*d <= -a*d, so a monotone exp never
    # gives a negative radicand and the branch is never entered: 2,000,000 near-tie
    # samples gave none. It stays as the guard for a libm whose exp is not monotone
    ("radicand-negated", "equivalent", CURVE, "radicand = 0.0", "radicand = -radicand"),
    ("cutoff-factor-rising", "output", CURVE, "e = math.exp(-x)", "e = math.exp(x)"),
    ("peak-search-1e-6", "output", CURVE, "lo, hi, 1e-9)", "lo, hi, 1e-6)"),
    ("a-search-1e-9", "output", CURVE, "a_lo, a_hi, 1e-12)", "a_lo, a_hi, 1e-9)"),
    ("unimodal-check-dropped", "output", CURVE, "if max(fc, fd) < min(f(lo), f(hi)):", "if False:"),
    ("bracket-check-dropped", "output", CURVE, "if not (r_lo > 0.0 > r_hi):", "if False:"),
    ("landmark-tolerance-0.05", "output", CURVE, "abs(half_ratio - 0.5) > 0.01",
     "abs(half_ratio - 0.5) > 0.05"),
    ("map-zero-at-1-allowed", "output", DIFF, "if self.slope + self.intercept <= 0.0:",
     "if self.slope + self.intercept < 0.0:"),
    ("map-floor-dropped", "output", DIFF, "return max(m.slope * h + m.intercept, m.floor)",
     "return m.slope * h + m.intercept"),
    ("fit-intercept-plus", "output", DIFF, "intercept=d_mean - slope * h_mean",
     "intercept=d_mean + slope * h_mean"),
    ("ema-weights-swapped", "output", DIFF,
     "ema = rc.smoothing * observed + (1.0 - rc.smoothing) * ema",
     "ema = rc.smoothing * ema + (1.0 - rc.smoothing) * observed"),
    # at 1 / clamp == ratio both forms leave ratio equal to 1 / clamp
    ("retarget-low-clamp-ge", "equivalent", DIFF, "if 1.0 / clamp > ratio:", "if 1.0 / clamp >= ratio:"),
    ("retarget-high-clamp-dropped", "output", DIFF, "if clamp < ratio:", "if False:"),
    ("retarget-floor-dropped", "output", DIFF, "return floor if floor > d else d, ema", "return d, ema"),
    ("rate-constant-per-second", "output", DIFF, "/ (anchor_hashrate * target_interval)",
     "/ anchor_hashrate"),
    ("exit-at-off-cost", "output", AGENTS, "return revenue < off_cost", "return revenue <= off_cost"),
    ("entry-above-on-cost", "output", AGENTS, "else revenue >= on_cost", "else revenue > on_cost"),
    ("costs-swapped", "output", AGENTS, "return self.margin_on * cost, self.margin_off * cost",
     "return self.margin_off * cost, self.margin_on * cost"),
    ("revenue-per-block-times-hour", "output", AGENTS, "(3600.0 / target_interval)",
     "(3600.0 * target_interval)"),
    ("credit-warm-up-le", "output", AGENTS, "if blocks_seen < credit.window:",
     "if blocks_seen <= credit.window:"),
    ("credit-over-window", "output", AGENTS, "c = float(active_blocks) / credit.required",
     "c = float(active_blocks) / credit.window"),
    ("burn-in-quarter", "output", METRICS, "burn_in = len(records) // 5", "burn_in = len(records) // 4"),
    ("burn-in-whole-series", "output", METRICS, "if burn_in >= len(records):",
     "if burn_in > len(records):"),
    ("interval-from-first-block", "output", METRICS, "np.concatenate([[0.0], ts])",
     "np.concatenate([ts[:1], ts])"),
    ("share-ratio-unguarded", "output", METRICS,
     'share_ratio=t.mean_share / b.mean_share if b.mean_share else float("nan")',
     "share_ratio=t.mean_share / b.mean_share"),
    ("bool-as-number", "output", CONFIG, "if tp is float and type(v) in (int, float)",
     "if tp is float and isinstance(v, (int, float))"),
    ("unknown-keys-allowed", "output", CONFIG, "    if unknown:\n", "    if False:\n"),
    ("digest-keeps-seed", "output", CONFIG, 'd.pop("seed")', 'd.get("seed")'),
    ("duplicate-ids-allowed", "output", CONFIG, "if i != j:", "if False:"),
    ("overflowing-cost-allowed", "output", CONFIG, "if not math.isfinite(cost):", "if False:"),
    ("negative-base-seed-allowed", "output", CLI,
     "if args.base_seed is not None and args.base_seed < 0:", "if False:"),
    ("zero-threads-allowed", "output", CLI, "if workers < 1:", "if workers < 0:"),
    ("seed-dir-name-unchecked", "output", CLI, 'if sub.name == f"seed_{seed}" and (sub', "if (sub"),
    # the five OSError subclasses that main caught before it caught OSError
    ("os-error-subclasses-only", "output", CLI, "except OSError as exc:",
     "except (FileNotFoundError, FileExistsError, NotADirectoryError, IsADirectoryError,"
     " PermissionError) as exc:"),
]
SIMULATOR_TESTS = "tests/test_simulator.py::"
TABLE = [SIMULATOR_TESTS + "TestDecisionPass::test_the_hand_placed_edges_match_the_dense_pass"]
SETS = {
    "model": ["tests/test_golden_traces.py", SIMULATOR_TESTS + "TestDenseModel",
              SIMULATOR_TESTS + "TestDecisionPass::test_matches_the_dense_pass", *TABLE],
    "table": TABLE,
    "suite": [],  # pyproject's testpaths
}
# checks the table against the unmutated source, so no mutant run includes it
TABLE_CHECK = "tests/test_mutants.py"
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", ".perfbench")
KINDS = ("output", "work", "equivalent")


def problem(name, kind, path, old, new):
    """Why this mutant does not stand as written, or None if it does."""
    text = (ROOT / path).read_text()
    if kind not in KINDS:
        return f"its kind {kind!r} is none of {KINDS}"
    if text.count(old) != 1:
        return f"its old text is not in {path} exactly once"
    try:
        mutated = ast.parse(text.replace(old, new), path)
    except SyntaxError as err:
        return f"{path} does not parse with it: {err}"
    if ast.dump(mutated) == ast.dump(ast.parse(text, path)):
        return f"it leaves the program in {path} as it was"
    return None


def check():
    """(name, problem) of each mutant that does not stand as written."""
    return [(row[0], why) for row in MUTANTS if (why := problem(*row))]


def run(row, tests, seed):
    """Apply one mutant to a copy of the repository and run `tests` on it: the first
    failing test's id, or None if every test passed."""
    name, _, path, old, new = row
    if why := problem(*row):
        sys.exit(f"{name}: {why}")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        source = copy / path
        source.write_text(source.read_text().replace(old, new))
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"--hypothesis-seed={seed}", f"--ignore={TABLE_CHECK}", *tests]
        done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1, 2):  # 0 passed, 1 failed, 2 a collection error
        sys.exit(f"{name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return None if done.returncode == 0 else failed[0] if failed else lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that each mutant applies")
    parser.add_argument("--seed", type=int, default=0, help="--hypothesis-seed (default 0)")
    parser.add_argument("set", nargs="?", choices=SETS, default="model")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    if args.check:
        problems = check()
        for name, why in problems:
            print(f"{name}: {why}")
        print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants apply")
        return 1 if problems else 0
    for row in MUTANTS:
        name, kind = row[:2]
        if not args.names or name in args.names:
            first = run(row, SETS[args.set], args.seed)
            print(f"{name:32} {kind:10} {'killed' if first else 'survived':8} {first or ''}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
