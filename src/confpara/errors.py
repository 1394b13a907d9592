"""Exception hierarchy shared by the library and the command line driver.

The CLI maps these onto process exit codes; see the exit-code table in the
``cli`` module docstring.
"""


class ConfparaError(Exception):
    """Base class for all library errors."""


class InputError(ConfparaError):
    """Malformed input: bad file, bad schema, unparsable element, bad table.

    ``path`` is a JSON-pointer-style location when the error comes from a
    manifest file, otherwise None.
    """

    def __init__(self, message, path=None):
        self.path = path
        if path is not None:
            message = f"{message} (at {path})"
        super().__init__(message)


class PreconditionError(ConfparaError):
    """An operation's mathematical precondition is violated by the inputs."""


class ResourceCapExceeded(ConfparaError):
    """An enumeration hit its configured cap before finishing."""

    def __init__(self, message, cap=None):
        self.cap = cap
        super().__init__(message)


class MalformedOracleError(ConfparaError):
    """User-supplied oracles are mutually inconsistent (distinct from a
    refuted verdict: the witness data does not even describe a candidate)."""


class UnsupportedOperationError(ConfparaError):
    """The operation is not defined for this kind of object (for example
    exact generation testing on an infinite group)."""
