"""Exception types shared across the engine, and the one way messages list variables."""


def listing(variables) -> str:
    """The variables' names, sorted and comma-separated, for an error message."""
    return ", ".join(sorted(map(str, variables)))


class EngineError(Exception):
    """Base class for domain errors: invalid inputs, degenerate algebra."""


class KindMismatchError(EngineError):
    """Mixed free/commutative elements, or mismatched generator counts."""


class NotInitialError(EngineError):
    """A set of monoid elements is not downward closed."""


class PoleError(EngineError):
    """A denominator vanished under substitution."""


class UncoveredVariableError(EngineError):
    """A substitution or derivation table misses a needed variable."""


class UndeclaredParameterError(EngineError):
    """A coefficient-derivation table mentions an unknown parameter."""


class SeparantZeroError(EngineError):
    """A defining polynomial has a multiple root at its generator."""


class NonInvertibleError(EngineError):
    """An element of an algebraic tower is zero or a zero divisor."""


class FiberError(EngineError):
    """A point does not lie on the variety or bundle it was claimed to."""


class NotTriangularError(EngineError):
    """A system does not have the required triangular shape."""


class ConfigurationError(EngineError):
    """Structurally invalid configuration data."""


class ParseError(Exception):
    """Syntax error with 1-based position information."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column
