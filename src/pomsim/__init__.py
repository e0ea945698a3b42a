"""Network-dependent block reward schedule and proof-of-mining simulator."""

__version__ = "0.1.0"

from .agents import (
    EconomicsConfig,
    MinerAgent,
    PomCredit,
    PopulationSpec,
    flips,
    generate_population,
    pom_credit,
    revenue_rate,
)
from .difficulty import (
    DEFAULT_ANCHORS,
    DifficultyMap,
    RetargetConfig,
    fit_difficulty_map,
    hash_to_difficulty,
    rate_constant_from_map,
    retarget,
)
from .metrics import compare, equilibrium_summary
from .reward_curve import (
    BaseCurveParams,
    CutoffParams,
    RewardScheduleParams,
    base_reward,
    calibrate_cutoff,
    calibrate_schedule,
    cutoff_factor,
    find_peak,
    reward,
)
from .simulator import (
    BlockRecord,
    Draws,
    NetworkState,
    RunSeries,
    SimConfig,
    read_series_csv,
    run,
    schedule_max,
    step,
    write_series_csv,
)
from .config import (
    PricePath,
    config_from_dict,
    load_config,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
