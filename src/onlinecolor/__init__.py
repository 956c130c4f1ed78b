"""Online matching, fractional-matching rounding, and online edge coloring
under adversarial edge arrivals, with exact-probability and Monte-Carlo
verification machinery."""

from .colorer import (
    ColoringResult,
    DegreeSchedule,
    RangePartition,
    SampledPartition,
    degree_schedule,
    greedy_color,
    list_color,
    local_color,
    local_lists,
    plain_color,
    recurrence_step,
    run_generic,
    run_greedy_fallback,
)
from .harness import (
    RunReport,
    counterexample_demo,
    freedman_bound,
    freedman_matcher_check,
    martingale_monitor,
    mc_marginals,
    validate_coloring,
    verify_stream,
    wilson_interval,
)
from .matcher import (
    MODE_ANALYSIS_FRIENDLY,
    MODE_GREEDY_FALLBACK,
    MODE_NATURAL,
    MatcherConfig,
    choose_q,
    run,
)
from .oracle import exact_colored_marginals, exact_marginals
from .profiles import ConstantsProfile, resolve_profile
from .rounder import RoundingConfig, config_for_loss, s_eps
from .stream import (
    ArrivalStream,
    EdgeArrival,
    emit_stream,
    gen_complete_bipartite,
    gen_erdos_renyi,
    gen_lower_bound_tree,
    gen_regular,
    parse_stream,
    reorder,
    with_range_lists,
    with_uniform_x,
)

__version__ = "0.1.0"
