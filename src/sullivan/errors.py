"""Exception taxonomy shared by every module of the engine.

The command line front end maps these onto exit codes, so the split matters:
bad input data, unsatisfied mathematical hypotheses, and the engine
contradicting itself are three different kinds of failure.
"""


def quoted(token: str) -> str:
    """``repr(token)`` for an error message, cut to its first 40 characters
    and ``...`` when longer, so a rejected token never fills the line."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


class EngineError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ModelError(EngineError):
    """Invalid algebra or differential data (bad degrees, d^2 != 0, ...)."""


class ParseError(ModelError):
    """Syntax error in an element expression or a model file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
        elif column is not None:
            where = f"column {column}"
        super().__init__(f"{message} ({where})" if where else message)
        self.message = message


class PreconditionError(EngineError):
    """A mathematical precondition fails (non-elliptic model, wrong k, ...)."""


class InternalInconsistencyError(EngineError):
    """Two methods that must agree did not; indicates a bug, not bad input."""
