"""mechdock: an adversarial testbed for truthful scheduling mechanisms.

Exact tiered arithmetic, scheduling instances with a black-box mechanism
interface, optimization oracles, weak-monotonicity checking, instance
builders with a certified parameter engine, and adaptive adversary
strategies that interrogate mechanisms and emit verifiable witnesses.
"""

__version__ = "0.1.0"
