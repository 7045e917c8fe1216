"""Exception and warning types shared across resonance_lab."""

from __future__ import annotations


class ResonanceLabError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ResonanceLabError):
    """An argument lies outside the mathematical domain of the operation."""


class RangeError(ResonanceLabError):
    """An argument exceeds the validated numerical range of a kernel."""


class BranchError(ResonanceLabError):
    """A branch choice is undefined at the requested point."""


class SingularityError(ResonanceLabError):
    """Evaluation hit a singularity that no algebraic rewrite removes."""


class StructureError(ResonanceLabError):
    """The coupling family lacks the zero-energy structure the guess needs."""


class MatchError(ResonanceLabError):
    """Interior and exterior pieces fail to match smoothly at the well edge."""


class QuadratureError(ResonanceLabError):
    """The scattering phase's branch choice needed more nodes than its budget."""


class MissingInput(ResonanceLabError):
    """A required input file does not exist."""


class ConfigError(ResonanceLabError):
    """A run configuration is inconsistent or incomplete."""


class Inconclusive(ResonanceLabError):
    """A track is too broken to support a persistence verdict."""


class SheetDriftWarning(UserWarning):
    """Newton moved arg(lambda) by more than pi/2 away from the guess."""
