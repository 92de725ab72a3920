"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
"""


class BayesgofError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BayesgofError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(BayesgofError, ValueError):
    """An experiment or CLI configuration is inconsistent or incomplete."""


class DataError(BayesgofError, ValueError):
    """Input data violates the documented schema or model requirements."""


class EvaluationError(BayesgofError, RuntimeError):
    """A numerical evaluation produced a non-finite or invalid result."""


class OptimizationError(BayesgofError, RuntimeError):
    """An iterative optimizer failed to converge within its budget."""


def first_ten(items: list, text=str) -> str:
    """`text` of the first ten items, then " and N more, M in all" when there
    are more: the one rule by which a refusal names its offenders."""
    more = f" and {len(items) - 10} more, {len(items)} in all" if len(items) > 10 else ""
    return text(items[:10]) + more
