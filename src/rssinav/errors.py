"""Shared exception machinery for the toolkit.

Every module defines its own error types next to the operations that raise
them; they all derive from ToolkitError so callers (notably the CLI) can
catch pipeline failures with one handler.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class OutOfBounds(ToolkitError):
    """A cell index or position lies outside the map."""


class CorruptFile(ToolkitError):
    """The model file is truncated or structurally invalid."""
