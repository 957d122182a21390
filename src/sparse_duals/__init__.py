"""Maximum sparse ideals of numerical semigroups and the isometry-dual
behaviour of punctured one-point AG codes on Hermitian curves."""

from .errors import (
    DifferentParents,
    DivisionByZero,
    DuplicatePoints,
    EmptyGenerators,
    FieldTooLarge,
    GcdNotOne,
    NotALeader,
    NotAnIdeal,
    NotMaximumSparse,
    NotPrime,
    NotProper,
    PointNotOnCurve,
    PreconditionViolated,
    SparseDualsError,
    TooManySubsets,
)
from .gf import Field, FieldElement
from .hermitian import (
    CodeSequence,
    CurvePoint,
    compute_wstar,
    compute_wstar_family,
    curve_genus,
    find_isometry_vectors,
    hermitian_field,
    hermitian_points,
    isometry_dual_criterion,
    isometry_sequence,
    monomial_basis,
    weierstrass_semigroup,
)
from .puncturing import (
    DivisorClasses,
    HierarchyGraph,
    InheritanceReport,
    build_hierarchy,
    divisor_classes,
    export_dot,
    graph_to_json,
    qualifying_subsets,
    sample_qualifying_subsets,
    verify_inheritance,
)
from .semigroup import NumericalSemigroup
from .sparse_ideals import (
    InclusionReport,
    SemigroupIdeal,
    divisor_set,
    enumerate_proper_ideals,
    gap_pair_count,
    inclusion_report,
    is_maximum_sparse,
    leader_set,
    maximum_sparse_from_leader,
)

__version__ = "0.1.0"
