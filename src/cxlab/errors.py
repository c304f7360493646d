"""Exception types shared across the engine."""


class InputError(ValueError):
    """Raised when caller-supplied data violates a documented precondition."""


class ScenarioError(InputError):
    """Parse or semantic error in a scenario file, with a source location."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class InvariantError(AssertionError):
    """Raised when a computed object violates an invariant the engine proves.

    It signals an implementation fault (or a module whose actions break the
    axioms), not malformed input.  It subclasses AssertionError so callers
    that catch assertion failures keep working, but unlike `assert` it is
    raised under `python -O` too.
    """


def check(cond, msg: str) -> None:
    """Raise InvariantError(msg) unless cond holds; never stripped by -O."""
    if not cond:
        raise InvariantError(msg)
