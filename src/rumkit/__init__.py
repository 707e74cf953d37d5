"""Exact-arithmetic toolkit for identification of random utility models.

A model is a set of strict preferences over finitely many alternatives; a
distribution over the model induces a random choice rule by best-element
choice. This package decides, in exact rational arithmetic, whether a model
is identified from such data, builds maximal identified models, checks and
exploits edge decomposability to recover distributions, and generates the
special model families (single-crossing, Latin squares) with their own
recovery routines.
"""

from .core import (
    Lattice,
    Model,
    Preference,
    Universe,
    all_preferences,
    check_minimal_mutual_agreement,
    contour_class,
    lattice,
    preference_from_labels,
)
from .decompose import (
    DecompositionResult,
    RecoveryReport,
    RecoveryStatus,
    extend_edge_decomposable,
    is_edge_decomposable,
    recover_distribution,
    validate_witness,
)
from .errors import (
    CapExceededError,
    DocumentError,
    LabelError,
    NotCarumError,
    NotEdgeDecomposableError,
    RumkitError,
    UniverseMismatchError,
    WitnessError,
)
from .families import (
    CarumRecovery,
    OrderSearchResult,
    SingleCrossingResult,
    carum_recover,
    check_single_crossing,
    double_cover_model,
    fishburn_distributions,
    fishburn_model,
    fixtures,
    latin_square,
    max_scrum_model,
    no_single_crossing_model,
    respects,
    scrum_order_exists,
    shadowed_triple_model,
)
from .flowgraph import (
    FlowDiagram,
    SpanningTree,
    build_diagram,
    cyclomatic_number,
    directed_spanning_tree,
    preference_basis,
    verify_spanning_tree,
)
from .identify import (
    IdentificationResult,
    NullspaceCertificate,
    is_identified,
    max_identified_size,
    mobius_vector,
    rank,
)
from .stochastic import (
    ChoiceData,
    MobiusInverse,
    PreferenceDistribution,
    RandomChoiceRule,
    as_fraction,
    check_stochastic_rationality_necessary,
    flow_conservation_check,
    mobius_forward,
    mobius_inverse,
    point_mass,
    rcr_from_distribution,
    sample_empirical_rule,
    validate_rcr,
)

__version__ = "0.1.0"
