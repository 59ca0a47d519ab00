"""Exception types shared across the toolkit.

Every error raised by a fiberwise computation carries the fiber index at which
it was detected (or None for global conditions) so pipeline drivers can report
the offending grid point.
"""

from __future__ import annotations


class FibershiftError(Exception):
    """Base class for all toolkit errors."""

    def __init__(self, message: str, fiber: int | None = None):
        self.fiber = fiber
        if fiber is not None:
            message = f"{message} (fiber {fiber})"
        super().__init__(message)


class DegreeOverflow(FibershiftError):
    """A z-degree lies outside the retained range 0..n_z-1."""


class CoordinateOverflow(FibershiftError):
    """A fiber coordinate index lies outside 1..k."""


class ToleranceAmbiguity(FibershiftError):
    """A singular value fell inside the guard band around the rank cutoff.

    The rank decision would not be stable under small perturbations of
    rank_tol; the caller must adjust the tolerance or the input.
    """


class NotInvariant(FibershiftError):
    """A range function expected to be shift invariant leaks outside itself."""


class RankTooLarge(FibershiftError):
    """A wandering rank exceeds the fiber coordinate dimension k."""


class BaseNotConstant(FibershiftError):
    """Recovered wandering vectors carry nonzero higher-degree components.

    No longer raised: ``is_full_hardy``'s S* leak bounds the degree-positive
    mass of a wandering vector. Kept because the benchmark workloads still
    catch it.
    """


class WanderingRankNotOne(FibershiftError):
    """A scalar invariant subspace has wandering dimension different from 1."""


class NotInner(FibershiftError):
    """An extracted function's inner defect exceeds inner_tol."""


class NotUnimodular(FibershiftError):
    """A fiberwise quotient expected to be unimodular is not."""


class RangesDiffer(FibershiftError):
    """Two inputs that must generate the same range function do not."""


class ImagesDiffer(FibershiftError):
    """Two factorizations do not target the same subspace."""


class NotPartialIsometry(FibershiftError):
    """A symbol's Phi* Phi is not a constant projection on the circle."""


class ParseError(FibershiftError):
    """A problem file is syntactically malformed."""


class BoundsError(FibershiftError):
    """A problem file entry violates the declared lattice bounds."""
