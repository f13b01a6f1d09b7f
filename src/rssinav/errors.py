"""Shared exception machinery for the toolkit.

A module defines its own error types next to the operations that raise
them; the ones several modules raise, and the parameter checks several
modules share (raising InvalidParameter), live here.  All derive from
ToolkitError, so callers (notably the CLI) catch them with one handler.
"""

import math


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(ToolkitError, ValueError):
    """A parameter is outside its valid range; a ValueError too, so argparse ``type=`` casters take it."""


class OutOfBounds(ToolkitError):
    """A cell index or position lies outside the map."""


class CorruptFile(ToolkitError):
    """The model file is truncated or structurally invalid."""


class ShapeMismatch(ToolkitError):
    """Array shapes do not match the model or each other."""


class EmptyDataset(ToolkitError):
    """The operation needs at least one row."""


def require_positive(**values: float) -> None:
    """Raise InvalidParameter naming the first value that is not a finite positive number (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not 0 < value < math.inf:
            raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def check_seed(seed: int) -> None:
    """The one check every seed option shares: seeds are non-negative."""
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
