"""Exception types shared across the package.

Each type carries the CLI exit code it maps onto as ``exit_code``: bad
input is distinguished from blowing a resource cap, and internal
cross-check failures are never silently swallowed.
"""

from __future__ import annotations


class ValidationError(ValueError):
    """Malformed or out-of-contract input (bad vertex index, bad file, ...)."""

    exit_code = 2


class CapError(RuntimeError):
    """A fixed resource cap (a module constant) would be exceeded; the message names it."""

    exit_code = 3


class NotASurfaceError(ValueError):
    """An operation that requires a closed surface was handed something else."""

    exit_code = 2


class CrossCheckError(RuntimeError):
    """Two independent routes to the same answer disagreed.

    This always indicates a bug, never a property of the input, so it is
    raised hard instead of being folded into a return value.
    """

    exit_code = 4
