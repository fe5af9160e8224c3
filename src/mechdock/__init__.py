"""mechdock: an adversarial testbed for truthful scheduling mechanisms.

Exact tiered arithmetic, scheduling instances with a black-box mechanism
interface, optimization oracles, weak-monotonicity checking, instance
builders with a certified parameter engine, and adaptive adversary
strategies that interrogate mechanisms and emit verifiable witnesses.
"""

from .exactnum import (
    INF,
    UNBOUNDED,
    TieredValue,
    format_value,
    leading_ratio,
    parse_value,
    tv,
)
from .schedmodel import (
    Allocation,
    Instance,
    MechanismError,
    active_players,
    makespan,
    validate_allocation,
)

__version__ = "0.1.0"
