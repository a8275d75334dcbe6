"""Discrete-time Markov chain substrate.

The usage profile of every composite service in the paper is a DTMC; this
subpackage provides the chain representation, the absorbing-chain analysis
behind equation (3), long-run (stationary) analysis, a Hidden Markov
Model module for estimating usage profiles from observation traces (the
paper's reference [16]), and the pluggable linear-solver backends
(:mod:`repro.markov.solvers`) the analyses run on.
"""

from repro.markov.absorbing import AbsorbingChainAnalysis, absorption_probability
from repro.markov.ctmc import ContinuousTimeMarkovChain
from repro.markov.dtmc import ChainBuilder, DiscreteTimeMarkovChain
from repro.markov.hmm import HiddenMarkovModel
from repro.markov.solvers import (
    SOLVERS,
    default_solver_cache,
    scipy_available,
    solver_cache_stats,
    validate_solver,
)
from repro.markov.stationary import (
    is_irreducible,
    mean_first_passage_time,
    stationary_distribution,
)

__all__ = [
    "SOLVERS",
    "AbsorbingChainAnalysis",
    "ChainBuilder",
    "ContinuousTimeMarkovChain",
    "DiscreteTimeMarkovChain",
    "HiddenMarkovModel",
    "absorption_probability",
    "default_solver_cache",
    "is_irreducible",
    "mean_first_passage_time",
    "scipy_available",
    "solver_cache_stats",
    "stationary_distribution",
    "validate_solver",
]
