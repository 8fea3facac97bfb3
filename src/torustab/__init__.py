"""Stability toolkit for two-dimensional threshold cellular automata on a torus."""

from .grid import (
    Rule,
    THR1,
    THR2,
    THR3,
    THR4,
    THR5,
    MAJORITY,
    TorusConfig,
    apply_rule,
    complement,
    find_period,
    is_cell_stable,
    is_stable,
    moore,
    path_parity,
    von_neumann,
)
from .generators import GenSpec, gen_hard_majority, gen_hard_thr2, gen_stable_majority, gen_stable_thr2
from .stabilizer import StabilizerParams, stabilize
from .structure import majority_structure_check, thr2_structure_check
from .tester import QueryOracle, TesterParams, run_naive_tester, run_tester

__all__ = [
    "GenSpec",
    "QueryOracle",
    "StabilizerParams",
    "TesterParams",
    "gen_hard_majority",
    "gen_hard_thr2",
    "gen_stable_majority",
    "gen_stable_thr2",
    "majority_structure_check",
    "run_naive_tester",
    "run_tester",
    "stabilize",
    "thr2_structure_check",
    "Rule",
    "THR1",
    "THR2",
    "THR3",
    "THR4",
    "THR5",
    "MAJORITY",
    "TorusConfig",
    "apply_rule",
    "complement",
    "find_period",
    "is_cell_stable",
    "is_stable",
    "moore",
    "path_parity",
    "von_neumann",
]

__version__ = "0.1.0"
