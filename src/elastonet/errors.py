"""Exception types shared across the package."""


class ElastonetError(Exception):
    """Base class for all elastonet errors."""


class AsymmetricMatrix(ElastonetError):
    """Input matrix is too far from symmetric to repair by averaging."""


class DegenerateSpring(ElastonetError):
    """Spring endpoints coincide; the axial direction is undefined."""


class GenerationFailed(ElastonetError):
    """Random network generation exhausted its retry budget."""


class AtResonance(ElastonetError):
    """Response requested at (or too close to) a resonance."""


class FloppyModeInconsistent(ElastonetError):
    """A zero-stiffness interior mode couples to the terminals."""


class ReconstructionMismatch(ElastonetError):
    """Extracted pole-residue form fails to reproduce the direct response."""


class DimensionMismatch(ElastonetError):
    """Array shapes do not agree with the declared geometry."""


class NotCharacterizable(ElastonetError):
    """Candidate response violates the admissibility conditions."""


class PlacementFailed(ElastonetError):
    """Could not place internal nodes subject to the geometric constraints."""


class ZeroForce(ElastonetError):
    """A rank-one component was requested for a zero force vector."""


class SchemaError(ElastonetError):
    """A serialized object does not match its JSON schema.

    The message always names the offending field path, e.g. ``nodes[3].mass``.
    """

