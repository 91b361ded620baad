"""Shared exception types."""


class ResourceCapError(RuntimeError):
    """A configured size/frontier cap was exceeded; message names the cap."""


class BoundExceededError(RuntimeError):
    """The brute-force oracle found no walk within its length budget."""


class VerificationError(RuntimeError):
    """An emitted answer failed its independent re-check."""


class UsageError(Exception):
    """Bad command-line input or environment setting (exit code 2)."""
