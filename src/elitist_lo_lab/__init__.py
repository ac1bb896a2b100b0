"""elitist-lo-lab: simulation and lower-bound laboratory for elitist (1+1)
search on generalized LeadingOnes."""

from .lo_core import (
    BitString,
    CountingOracle,
    LoInstance,
    Ordering,
    lo_value,
    random_instance,
)
from .framework import RunRecord, run_one_plus_one, verify_ranking_invariance
from .heuristics import Memlog, OneEa, Rls, make_strategy

__all__ = [
    "BitString",
    "CountingOracle",
    "LoInstance",
    "Memlog",
    "OneEa",
    "Ordering",
    "Rls",
    "RunRecord",
    "lo_value",
    "make_strategy",
    "random_instance",
    "run_one_plus_one",
    "verify_ranking_invariance",
]

__version__ = "0.1.0"
