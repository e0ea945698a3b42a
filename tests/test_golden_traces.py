"""Golden traces: the SHA-256 of `blocks.csv` is pinned per (config, seed), and the
kernel gives the dense model's lines on every case.

Any change to the simulator that moves a single bit of output, or a single
draw of the seeded generators, fails here.  So does one that keeps the output
but changes how much work the kernel does for it: each case's count of judged
miners, filed miners, bisections and refreshes is pinned in `WORK`.  To
re-pin on purpose, run

    PYTHONPATH=src python tests/test_golden_traces.py

and paste the printed tables over `GOLDEN` and `WORK`, saying in the change why
the traces or the counts moved.  The script exits 1 if the kernel and
`dense_model` disagree on any case, so a table it prints with exit status 0 is
the model's too.

Each case has three tests: the kernel's lines are the dense model's and their
digest is pinned, its work counts are pinned, and the kernel and model agree,
unpinned, at two further seeds of the case.
"""

import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import pytest

from pomsim import simulator
from pomsim.agents import MinerAgent, PopulationSpec
from pomsim.config import load_config
from pomsim.simulator import BlockRecord, run, schedule_max, write_rows

import dense_model

ROOT = Path(__file__).resolve().parent.parent
# example.json is dynamics.json with every default written out: the same traces
CONFIGS = [p for p in sorted((ROOT / "configs").glob("*.json")) if p.stem != "example"]
SEEDS = (0, 1, 2)
HORIZON = 1000
STALL_QUANTA = 1000  # the cap on both sides: a healthy run stalls for a few quanta at most


def duty_miners():
    # mixed duty cycles and costs: decisions, dwell and the duty mask all bite.
    # full0 costs nothing and never leaves: the stall loop does not advance
    # the height, so a network of only off-phase duty miners would never
    # restart.
    return [
        MinerAgent(id="full0", hashrate=12.0, unit_cost=0.0),
        MinerAgent(id="full1", hashrate=6.0, unit_cost=1.5),
        MinerAgent(id="duty0", hashrate=10.0, unit_cost=0.5, duty=(5, 5)),
        MinerAgent(id="duty1", hashrate=4.0, unit_cost=1.0, duty=(3, 7)),
        MinerAgent(id="duty2", hashrate=20.0, unit_cost=2.0, duty=(40, 10)),
    ]


def cases():
    """(name, config) for every pinned trace."""
    out = []
    for path in CONFIGS:
        base = load_config(path)
        for seed in SEEDS:
            for constant in (False, True):
                name = f"{path.stem}-s{seed}-{'constant' if constant else 'cutoff'}"
                cfg = dataclasses.replace(
                    base, horizon=HORIZON, seed=seed, constant_reward=constant
                )
                out.append((name, cfg))
    dynamics = load_config(ROOT / "configs" / "dynamics.json")
    for seed in SEEDS:
        # 2,000 miners overshoot the cutoff: mass exits, stall quanta, mass re-entry
        cliff = dataclasses.replace(
            dynamics,
            horizon=300,
            seed=seed,
            population=PopulationSpec(n_small=1936, n_large=64),
        )
        out.append((f"cliff-s{seed}", cliff))
    for seed in SEEDS:
        duty = dataclasses.replace(
            dynamics, horizon=HORIZON, seed=seed, explicit_population=duty_miners()
        )
        out.append((f"duty-s{seed}", duty))
    return out


def csv_lines(records) -> list[str]:
    """The lines of `blocks.csv` holding these records, as `write_series_csv` writes them
    (a list, so that a failed comparison names the first line that differs)."""
    out = io.StringIO(newline="")
    write_rows(out, BlockRecord._fields, records)
    return out.getvalue().splitlines(keepends=True)


def assert_invariants(records, r_max):
    """The simulator's invariants on every record of one run."""
    clock = 0.0
    for i, r in enumerate(records):
        assert r.height == i and r.timestamp > clock
        clock = r.timestamp
        assert 0.0 <= r.credited_reward <= r.raw_reward <= r_max + 1e-9
        assert r.credited_reward == r.raw_reward * r.pom_multiplier
        assert 0.0 <= r.pom_multiplier <= 1.0 and 0.0 <= r.large_miner_share <= 1.0
        assert r.active_miner_count >= 1


def traces(config):
    """The kernel's records and `blocks.csv` lines, then the dense model's, with
    `_MAX_STALL_QUANTA` at `STALL_QUANTA` on both sides."""
    with mock.patch.object(simulator, "_MAX_STALL_QUANTA", STALL_QUANTA):
        records = run(config).records
    model = list(dense_model.blocks(config, max_stall_quanta=STALL_QUANTA))
    return records, csv_lines(records), model, csv_lines(model)


# each count, and the kernel functions whose calls it sums
COUNTED = {"flips": ("flips",), "insort": ("insort",),
           "bisect": ("bisect_left", "bisect_right"), "_refresh": ("_refresh",)}


def work(config) -> dict:
    """The kernel's work on one run, as calls to `simulator`'s `flips` (miners judged),
    `insort` (miners filed into a ready list), `bisect_left` and `bisect_right` together
    (three per exact pass past the quiet skip; one per winner draw, window count past
    its shortcut and toggle compaction) and `_refresh`, with `_MAX_STALL_QUANTA` at
    `STALL_QUANTA` as in `traces`.  The two bisections share one count, since a
    change that swaps one for the other does the same work."""
    counts = dict.fromkeys(COUNTED, 0)

    def counted(count, name):
        wrapped = getattr(simulator, name)

        def call(*args, **kw):
            counts[count] += 1
            return wrapped(*args, **kw)

        return call

    counters = {name: counted(count, name) for count, names in COUNTED.items() for name in names}
    with mock.patch.multiple(simulator, _MAX_STALL_QUANTA=STALL_QUANTA, **counters):
        run(config)
    return counts


def digest(lines) -> str:
    """The SHA-256 of the `blocks.csv` that holds these lines."""
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


# Re-pinned, all 18, when `fit_difficulty_map` became the closed-form least-squares
# fit in Python floats in place of `np.linalg.lstsq`, whose last bits depended on the
# CPU kernel OpenBLAS picks. Every case runs on the fitted default map, which moved
# (slope 0x1.51dd0972ad3abp-5 -> 0x1.51dd0972ad3b6p-5, intercept 0x1.979035680a781p-4
# -> 0x1.979035680a660p-4), and so does its solve-rate constant. The parent commit,
# given each config with that map as flat fields, prints this table (README).
GOLDEN = {
    "dynamics-s0-cutoff": "2afc16a7da2ad14a6daaeaee405b75a1921be1f12ed4c95c5f7515eaf81467d6",
    "dynamics-s0-constant": "33d9f39d1f27f79f6ddab9d6a9788d887435ba5504f88aec909919fd2b808e8c",
    "dynamics-s1-cutoff": "804f6131dece84cd7e625807c4d28825b27e95b2ada22ec8556d267ee7ad2cc1",
    "dynamics-s1-constant": "b36599e71f7868d310e8081d1cb587cf5ae937cd113e2ec628444412a4403f91",
    "dynamics-s2-cutoff": "9b7a66beda569709ab46e552bbbfd5d233428af6e833580fd2330d35987fa629",
    "dynamics-s2-constant": "950dd2a4c8d43e78dd552851f82435d1ab0bec3e2f890453c5cf9e2e760b55bb",
    "price_step-s0-cutoff": "4f09f3d4013a86b88c66571f8f47b26b50e72dfeb973fee63775356ff708c23e",
    "price_step-s0-constant": "94e6957eed3b93bf07a0207d259fce0b80e2c7d2598d5861789feb11f26387a7",
    "price_step-s1-cutoff": "b6fac384cb16773abc3244df5c2ac47e1dfaae29e1e7ae1c3f5cb0bb4dcae0a5",
    "price_step-s1-constant": "8ad12d0af4d68e2fbf7c6c953e12951428657c27ac77be967efcf664031ed260",
    "price_step-s2-cutoff": "fdb2c65dcff7072e9e5975b358bd8e3b9499a3138c161b053cd61b7a100d2d2d",
    "price_step-s2-constant": "f59bb1bc9b7eb6ea0138c520cd8e61dada73263d9ee3eef69082d263ac754ed3",
    "cliff-s0": "0689de6c21ee411e959320a378757c94ccf39dfb26c144137881571f9173a537",
    "cliff-s1": "8f5cbfcbcff04e7b0729c531fbf66e27eeb8ef456f100518b6a8ac84caee1241",
    "cliff-s2": "6f6549fafc92c2ae5e04b66e42f8051a03c350e92ccae93bb4931f8ad705ff94",
    "duty-s0": "9865749561301ff64a30e75c1b1f3ebd30fb9d53f11a081ed0c9c8ac18a25e11",
    "duty-s1": "d3f9ad874aefb49315ea1b3bc7780c1fbf9572fe674f6c3432f1cc56a8fda920",
    "duty-s2": "92ff42849ea6f9a15580216bac7b52f5c237a7974d4dbd68b57b96a66cfa3b89",
}

# The kernel's work per case (`work`), which no output shows: a pass that judges or
# files miners it need not, or refreshes the network more often, gives the same lines
WORK = {
    "dynamics-s0-cutoff": {"flips": 626, "insort": 589, "bisect": 4147, "_refresh": 540},
    "dynamics-s0-constant": {"flips": 0, "insort": 62, "bisect": 1078, "_refresh": 1},
    "dynamics-s1-cutoff": {"flips": 633, "insort": 584, "bisect": 4113, "_refresh": 550},
    "dynamics-s1-constant": {"flips": 0, "insort": 62, "bisect": 1084, "_refresh": 1},
    "dynamics-s2-cutoff": {"flips": 641, "insort": 615, "bisect": 4206, "_refresh": 564},
    "dynamics-s2-constant": {"flips": 0, "insort": 62, "bisect": 1081, "_refresh": 1},
    "price_step-s0-cutoff": {"flips": 643, "insort": 591, "bisect": 3934, "_refresh": 437},
    "price_step-s0-constant": {"flips": 18, "insort": 68, "bisect": 1227, "_refresh": 35},
    "price_step-s1-cutoff": {"flips": 635, "insort": 589, "bisect": 3937, "_refresh": 441},
    "price_step-s1-constant": {"flips": 25, "insort": 68, "bisect": 1258, "_refresh": 40},
    "price_step-s2-cutoff": {"flips": 778, "insort": 582, "bisect": 4124, "_refresh": 485},
    "price_step-s2-constant": {"flips": 28, "insort": 69, "bisect": 1249, "_refresh": 37},
    "cliff-s0": {"flips": 4715, "insort": 3943, "bisect": 1363, "_refresh": 232},
    "cliff-s1": {"flips": 5928, "insort": 4657, "bisect": 1380, "_refresh": 199},
    "cliff-s2": {"flips": 6049, "insort": 4134, "bisect": 1372, "_refresh": 210},
    "duty-s0": {"flips": 33, "insort": 36, "bisect": 1660, "_refresh": 342},
    "duty-s1": {"flips": 34, "insort": 35, "bisect": 1709, "_refresh": 339},
    "duty-s2": {"flips": 37, "insort": 39, "bisect": 1756, "_refresh": 338},
}


CASES = cases()
PINNED = dict(CASES)  # the golden traces' configs, by name
# each case again at seeds len(SEEDS) and 2 * len(SEEDS) above its own: seeds 3-8,
# so each adds two trajectories that no other case runs
UNPINNED = [
    (f"{name}+{k * len(SEEDS)}", dataclasses.replace(config, seed=config.seed + k * len(SEEDS)))
    for k in (1, 2)
    for name, config in CASES
]


@pytest.mark.parametrize("name", PINNED)
def test_blocks_csv_digest_is_pinned(name):
    records, kernel, _, model = traces(PINNED[name])
    assert kernel == model  # so the pinned digest is the model's too
    assert digest(kernel) == GOLDEN[name]
    assert_invariants(records, schedule_max(PINNED[name].schedule)[1])


@pytest.mark.parametrize("name,config", UNPINNED, ids=[name for name, _ in UNPINNED])
def test_the_kernel_gives_the_models_lines_off_the_pinned_seeds(name, config):
    records, kernel, _, model = traces(config)
    assert kernel == model
    assert_invariants(records, schedule_max(config.schedule)[1])


@pytest.mark.parametrize("name", PINNED)
def test_the_kernels_work_is_pinned(name):
    assert work(PINNED[name]) == WORK[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(WORK) == sorted(name for name, _ in CASES)


def test_the_example_config_is_dynamics_with_every_default_written_out():
    # so the example's traces are the dynamics cases', and none is pinned twice
    example = load_config(ROOT / "configs" / "example.json")
    dynamics = load_config(ROOT / "configs" / "dynamics.json")
    assert example == dataclasses.replace(dynamics, horizon=1000, seed=1)


if __name__ == "__main__":
    golden, counts, disagree = {}, {}, []
    for name, config in CASES:
        _, kernel, _, model = traces(config)
        golden[name], counts[name] = digest(kernel), work(config)
        if kernel != model:
            disagree.append(name)
    print("GOLDEN = {", *(f'    "{k}": "{v}",' for k, v in golden.items()), "}", sep="\n")
    print("WORK = {", *(f'    "{k}": {json.dumps(v)},' for k, v in counts.items()), "}", sep="\n")
    print(f"kernel and dense model agree on {len(CASES) - len(disagree)} of {len(CASES)} cases",
          *disagree, file=sys.stderr)
    sys.exit(1 if disagree else 0)
