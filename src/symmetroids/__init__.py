"""Symmetric determinantal representations of nodal surfaces in P^3.

The package builds symmetric matrices of homogeneous forms with a
prescribed degree type, cuts out the surface det(phi) = 0, counts and
certifies its nodes as the rank-drop locus of phi, enumerates the
admissible degree types for a given surface degree, and checks the
graded cohomological identities that the construction predicts.
"""

from .fields import DEFAULT_PRIME, QQ, FieldError, PrimeField, RationalField, field_from_json
from .matrices import (
    DegenerateMatrixError,
    DegreeType,
    DegreeTypeError,
    SurfaceSpec,
    SymmetricFormMatrix,
    ambient_ring,
    congruence_transform,
    determinant,
    minors_ideal_generators,
    surface_from_matrix,
)
from .polynomials import (
    Polynomial,
    PolyParseError,
    Ring,
    format_polynomial,
    grevlex_key,
    parse_polynomial,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    ResourceBudgetError,
    radical_membership,
    squarefree_certificate,
)
from .macaulay import macaulay_colength
from .nodes import (
    ChartMismatchError,
    DegenerateSurfaceError,
    NodeReport,
    count_nodes,
    enumerate_rational_singular_points,
    hessian_rank_at_point,
    rank_drop_check,
)
from .enumeration import (
    CONSTRAINT_NAMES,
    ConstraintProfile,
    enumerate_degree_types,
    explain_rejection,
)
from .cohomology import (
    CohomologyTable,
    check_chi_node_formula,
    chi_from_resolution,
    cohomology_table,
    duality_symmetry_check,
    hilbert_function_coker,
    plane_section_presentation,
    surface_presentation,
    table_duality_symmetry,
)
from .kummer import search_sixteen_nodes
from .scenarios import SCENARIO_IDS, ScenarioResult, run_all, run_scenario

__version__ = "0.1.0"
