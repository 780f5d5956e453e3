"""Exception hierarchy for the TkLUS library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class QueryError(ReproError):
    """Raised for malformed TkLUS queries (bad radius, empty keywords...)."""


class DatasetError(ReproError):
    """Raised for inconsistent dataset construction."""
