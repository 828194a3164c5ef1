"""Invariant random orders of type Z on lattice groups, built from ordered
substitution tilings, with exact Folner audits and seeded entropy
estimation along the sampled orders."""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    ConsistencyError,
    DimensionMismatchError,
    InputError,
    InvalidIncrementsError,
    MultiorderError,
    OutOfWindowError,
)
from .groups import GroupSpec, box, compose, decode, element, encode, identity, inverse
from .orders import (
    Comparison,
    IncrementWindow,
    OrderRanking,
    OrderWindow,
    act,
    compare,
    from_increments,
    iid_order,
    interval,
    succ,
    to_increments,
)
from .tiling import (
    Address,
    Shape,
    StraightnessReport,
    SubstitutionRule,
    TilingSystemSpec,
    ValidationReport,
    builtin,
    central_tile,
    expand,
    sample_address,
    sample_straight_address,
    speedup,
    straight_check,
    validate_spec,
)
from .folner import (
    InvarianceRecord,
    UniformAuditResult,
    audit_intervals,
    full_tile_records,
    interval_growth,
    invariance_ratio,
    uniform_audit,
    unit_cross,
)
from .process import (
    Bernoulli,
    Configuration,
    MarkovLine,
    PeriodicOverlay,
    exact_conditional_entropy,
    exact_cylinder_law,
    exact_entropy_rate,
    phase_entropy,
    sample,
    sample_many,
)
from .entropy import (
    EntropyReport,
    Frame,
    ShearerResult,
    SuccessorConsistencyReport,
    block_entropy_along_order,
    cond_entropy_along_order,
    make_frame,
    mc_integral,
    plugin_entropy,
    remote_past_mi,
    shearer_check,
    successor_consistency,
    successor_step,
)

__all__ = [name for name in dict(vars()) if not name.startswith("_")]
