"""Shared exception types."""


class ResourceCapError(RuntimeError):
    """A size passed its cap: its limits.CAPS name, its value and how far the run got."""

    def __init__(self, cap_name: str, cap_value: int, reached: str):
        super().__init__(cap_name, cap_value, reached)
        self.cap_name, self.cap_value, self.reached = cap_name, cap_value, reached

    def __str__(self) -> str:
        return f"{self.cap_name} = {self.cap_value} exceeded {self.reached}"


class VerificationError(RuntimeError):
    """An emitted answer failed its independent re-check."""


class UsageError(Exception):
    """Bad command-line input or environment setting (exit code 2)."""
