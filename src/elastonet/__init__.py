"""Proportionally damped mass-spring networks: response, checking, synthesis.

The package models networks of point masses and springs with proportional
(stiffness- and mass-proportional) damping, evaluates their Laplace-domain
terminal response, extracts the closed pole-residue form of that response,
decides whether a candidate response is realizable at all, and constructs a
realizing network when it is.
"""

from .characterize import (
    CharacterizationReport,
    ConditionResult,
    check_canonical,
    passivity_margin,
)
from .errors import (
    AsymmetricMatrix,
    AtResonance,
    DegenerateSpring,
    DimensionMismatch,
    ElastonetError,
    FloppyModeInconsistent,
    GenerationFailed,
    NotCharacterizable,
    PlacementFailed,
    ReconstructionMismatch,
    SchemaError,
    ZeroForce,
)
from .geometry import check_balanced
from .linalg import SymMatrix, is_psd, schur_complement
from .model import (
    ElastodynamicNetwork,
    Node,
    RayleighParams,
    Spring,
    SpringColumns,
    SystemMatrices,
    assemble,
    network_from_dict,
    network_to_dict,
    random_network,
)
from .resonances import (
    LocusDescription,
    LocusPiece,
    contains,
    locus,
    resonances_of,
)
from .response import (
    CanonicalResponse,
    Mode,
    ReducedSystem,
    ResponseSample,
    canonical_from_dict,
    canonical_poles,
    canonical_responses,
    canonical_to_dict,
    eliminate_massless,
    evaluate_canonical,
    evaluate_reduced,
    extract_canonical,
    sample_nonresonant,
    system_resonances,
)
from .synthesize import (
    GeneralizedNetwork,
    IdealElasticElement,
    NetworkComponent,
    assemble_component,
    evaluate_generalized,
    generalized_from_dict,
    generalized_to_dict,
    synthesize,
    verify_synthesis,
)

__version__ = "0.1.0"
