"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
AnalysisError -> 3.
"""

from __future__ import annotations


class CohortNetError(Exception):
    """Base class for all toolkit errors."""


class UsageError(CohortNetError):
    """Bad flags, bad config values, or an unusable combination of both."""


class DataError(CohortNetError):
    """Malformed or inconsistent input data.

    ``line`` is a 1-based locator into the offending file when the error
    came from a parser.
    """

    def __init__(self, message: str, *, line: int | None = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class AnalysisError(CohortNetError):
    """The inputs parsed fine but the requested analysis is not applicable."""

