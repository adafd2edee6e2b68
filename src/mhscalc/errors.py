"""Shared exception type and default limit of the work guards."""

# The default --guard of every subcommand and of every guarded library call.
DEFAULT_GUARD = 10**7


class GuardExceeded(RuntimeError):
    """A work-size guard was exceeded before any summation started.

    Carries the offending size and the configured limit so callers (and the
    CLI) can report actionable numbers.
    """

    def __init__(self, what: str, size: int, limit: int):
        super().__init__(f"{what}: {size} exceeds guard {limit}")
        self.what = what
        self.size = size
        self.limit = limit


def check_guard(what: str, size: int, limit: int) -> None:
    """Raise GuardExceeded when the work `size` is over its `limit`."""
    if size > limit:
        raise GuardExceeded(what, size, limit)
