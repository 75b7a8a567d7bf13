"""Desk-scale laboratory for ordinal walks, ladder systems, downward-closed
pair families, separation solving, and the spaces they induce."""

from .cdw import (
    CdwSet,
    EMPTY_CDW,
    ExtractionResult,
    HFamily,
    SpaceData,
    downward_close,
    explicit_hfamily,
    extract_from_space,
    sum_threshold,
    sum_threshold_family,
)
from .errors import (
    ClosureError,
    DomainError,
    FanlabError,
    GuardExceeded,
    OrdinalParseError,
    ValidationError,
)
from .families import (
    BoundWitness,
    FuncFamily,
    SampleClosure,
    WeakBound,
    bound_function,
    close_avoiding,
    close_below,
    disagreement_index,
    empirical_witness,
    is_closed,
    separation_labeling,
    verify_witness,
    weak_bound_avoiding,
    weak_bound_below,
)
from .ordinals import (
    OMEGA,
    ONE,
    ZERO,
    LadderSystem,
    Ordinal,
    canonical_ladder,
    first_limits,
    omega_power,
    parse_ordinal,
    random_limit,
    random_ordinal,
)
from .separation import (
    MinSumResult,
    SeparationResult,
    adversary_two_sets,
    check_separation,
    exists_separation_capped,
    is_separation,
    min_cap,
    min_sum_labeling,
    solve_separation,
)
from .spaces import (
    CombSpace,
    FanClosureResult,
    build_space,
    clopen_check,
    export_space,
    probe_fan_closure,
    space_from_json,
    space_separation_check,
    space_to_json,
    tabulate_intersections,
)
from .walks import CSequence, WalkTrace

__all__ = [name for name in dir() if not name.startswith("_")]
