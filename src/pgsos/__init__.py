"""Rule formats, metrics, and denotations for probabilistic process algebras.

The package is organised around three activities:

* describing a process algebra by structural operational rules and checking
  that every rule fits the guarded probabilistic format
  (:mod:`pgsos.frontend`, :mod:`pgsos.terms`),
* running the resulting transition system and measuring behavioural
  distances between closed processes (:mod:`pgsos.semantics`,
  :mod:`pgsos.metric`),
* summarising how each operator propagates behavioural distance, by
  computing multiplicity-valued denotations of open terms and deriving
  moduli of continuity (:mod:`pgsos.denotation`, :mod:`pgsos.continuity`).

All arithmetic is exact: probabilities are :class:`fractions.Fraction`,
multiplicities are rationals extended with the infinity sentinel
:data:`pgsos.multiplicity.INF`.

The package root exports the API the README documents: the functions of its
library tour, the types they return and the exceptions they raise.  Every
other name is imported from its own module.
"""

from .errors import (
    AnalysisRefusal,
    ArityMismatch,
    DepthLimitExceeded,
    InputError,
    KindMismatch,
    OpenTermError,
    PairLimitExceeded,
    PgsosError,
    RuleFormatError,
    SpecSyntaxError,
    StateLimitExceeded,
    UndeclaredSymbol,
)
from .terms import Apply, FiniteDistribution, Variable, state_var
from .frontend import SpecDocument, parse_spec, parse_term
from .semantics import ReachableFragment, derive_transitions, explore_fragment
from .multiplicity import GenSet, ProcessDistance, process_distance
from .metric import bisim_distance
from .denotation import Denotations, bound_distance, lfp_denotations
from .continuity import ContinuityReport, ModulusSpec, is_uniformly_continuous
from .oracle import SampleResult, evaluate_sample

__version__ = "0.1.0"

__all__ = [
    # the library tour
    "parse_spec",
    "parse_term",
    "derive_transitions",
    "explore_fragment",
    "bisim_distance",
    "state_var",
    "lfp_denotations",
    "bound_distance",
    "process_distance",
    "is_uniformly_continuous",
    # one oracle sample
    "evaluate_sample",
    # the types they return
    "SpecDocument",
    "Apply",
    "Variable",
    "FiniteDistribution",
    "ReachableFragment",
    "Denotations",
    "GenSet",
    "ProcessDistance",
    "ContinuityReport",
    "ModulusSpec",
    "SampleResult",
    # the exceptions they raise
    "PgsosError",
    "InputError",
    "SpecSyntaxError",
    "UndeclaredSymbol",
    "ArityMismatch",
    "KindMismatch",
    "RuleFormatError",
    "OpenTermError",
    "AnalysisRefusal",
    "StateLimitExceeded",
    "DepthLimitExceeded",
    "PairLimitExceeded",
]
