"""Exception hierarchy shared by all pgsos modules.

Two families matter for the CLI exit-code contract:

* ``InputError`` — the user gave us something malformed (bad spec text,
  unknown operator, open term where a closed one is required, ...).
  The CLI maps these to exit code 2.
* ``AnalysisRefusal`` — the inputs were fine but the requested analysis
  cannot be completed honestly (a state, depth or pair budget exceeded,
  every oracle sample skipped).  Exit code 1.  Exploration either closes
  the reachable states or refuses, so no analysis ever runs on a
  truncated state space.

Everything else propagating out of the library is a plain bug, such as the
``RuntimeError`` of an oracle sample whose exact distance exceeds its bound.
"""

from __future__ import annotations


class PgsosError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Input / usage errors (CLI exit code 2)
# ---------------------------------------------------------------------------

class InputError(PgsosError):
    """The given spec, term, or option is malformed or inconsistent."""


class SpecSyntaxError(InputError):
    """Unparseable spec or term text.  Carries a line/column position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class UndeclaredSymbol(InputError):
    """A rule or term mentions an operator, action or set never declared."""


class ArityMismatch(InputError):
    """An operator was applied to the wrong number of arguments."""


class KindMismatch(InputError):
    """A substitution maps a state variable to a distribution term or vice versa."""


class RuleFormatError(InputError):
    """A rule violates the well-formedness constraints on rules.

    ``violations`` holds the individual findings (see
    :func:`pgsos.frontend.validate_rule`).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(v.message for v in self.violations))


class OpenTermError(InputError):
    """A closed term was required but the given one has free variables."""


class UnsupportedModulusShape(InputError):
    """Only linear capped moduli ``min(sum c_i * e_i, 1)`` are supported."""


# ---------------------------------------------------------------------------
# Analysis refusals (CLI exit code 1)
# ---------------------------------------------------------------------------

class AnalysisRefusal(PgsosError):
    """The analysis cannot produce a trustworthy result for these inputs."""


class StateLimitExceeded(AnalysisRefusal):
    """Reachable-state closure exceeded the configured state budget."""


class DepthLimitExceeded(AnalysisRefusal):
    """Reachable-state closure exceeded the configured depth budget."""


class PairLimitExceeded(AnalysisRefusal):
    """The distance computation depends on more state pairs than budgeted."""


class AllSamplesSkipped(AnalysisRefusal):
    """Every oracle sample was discarded before comparison."""
