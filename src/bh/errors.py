"""Exception hierarchy for the bh toolkit.

Every failure mode that callers are expected to handle maps to one of
these classes.  The CLI translates them to exit codes: ConfigInvalid -> 2,
MissingArtifact -> 3, everything else that signals a failed numerical
check -> 1.
"""


class BHError(Exception):
    """Base class for all toolkit errors."""


class InvalidGeometry(BHError):
    """Geometry parameters violate their admissibility constraints."""


class MeshFailure(BHError):
    """Mesh generation produced an inconsistent or degenerate mesh."""


class NonIntegerTiling(BHError):
    """Requested scale separation eps is not the reciprocal of an integer."""


class NonpositiveCoefficient(BHError):
    """A conductivity or surface diffusion coefficient is not positive."""


class DegenerateFacet(BHError):
    """An interface facet has measure below the degeneracy threshold."""


class SingularSystem(BHError):
    """A constrained linear solve did not reach the required residual."""


class ComponentSingular(BHError):
    """A per-component surface solve is not solvable (incompatible data)."""


class CompatibilityViolated(BHError):
    """Surface Poisson data on a closed component has nonzero mean."""


class SolverFailure(BHError):
    """An iterative solver or a time stepping loop failed to converge."""


class CrossCheckFailed(BHError):
    """Two independent discrete formulas for the same tensor disagree."""


class WrongGeometryClass(BHError):
    """A tensor or solver regime was requested for an unsuitable topology."""


class SingularStep(BHError):
    """A macroscopic system cannot be solved: its tensor (the step tensor
    C0/dt + A + dt/2 B0(0), or the elliptic tensor) is not symmetric
    positive definite, or its factorization or a solve failed."""


class ConfigInvalid(BHError):
    """A run configuration file failed validation."""


class MissingArtifact(BHError):
    """A required upstream artifact (mesh, cell data, tensors) is absent."""
