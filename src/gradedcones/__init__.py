"""Exact computations with multigraded polynomial ideals.

Everything is rational arithmetic on sparse exponent dictionaries; there is
no floating point anywhere.  The main entry points:

  rings / orders        polynomials and term orders
  groebner / ideals     Buchberger, elimination, saturation, Krull dimension
  grading / cones       multigradings, positivity, homogeneous ideals,
                        minimal embeddings, smoothness, singular loci
  orbits                torus orbits: dimensions, closures, strata,
                        cross-sections, rational curves
  strata                Groebner strata of monomial ideals
  session / cli         the input document format and the batch tool
"""

from .errors import (
    DependentColumnsError,
    GradedConesError,
    ImproperIdealError,
    NonPositiveGradingError,
    NoRationalPointError,
    NotHomogeneousError,
    ParseFailure,
    Rejection,
    ResourceLimitError,
)
from .rings import Exponent, PolyRing, Polynomial
from .orders import TermOrder
from .groebner import GroebnerBasis, buchberger, normal_form, s_polynomial
from .ideals import (
    IdealPresentation,
    eliminate,
    ideal_sum,
    krull_dimension,
    saturate,
)
from .grading import (
    GradingMap,
    NonPositivityCertificate,
    PositivityWitness,
    positivity_witness,
)
from .cones import (
    EmbeddingResult,
    HomogeneousIdeal,
    LinearPartBasis,
    SingularLocus,
    SmoothnessReport,
    homogeneous_ideal,
    linear_part,
    minimal_embedding,
    singular_locus,
    smooth_at_origin,
)
from .orbits import (
    CoordinateSubspaceUnion,
    CrossSectionChart,
    OrbitInfo,
    RationalCurve,
    RationalPoint,
    cross_section,
    find_one_dim_orbit,
    low_orbit_stratum,
    max_orbit_dimension,
    nonvanishing_coordinates,
    orbit_closure_ideal,
    orbit_contained,
    orbit_dimension,
    point,
    rational_curve_through,
)
from .strata import (
    MonomialIdealSpec,
    StratumResult,
    TailScheme,
    reduced_stratum,
    stratum_ideal,
    tail_scheme,
)
from .session import (
    SessionInput,
    format_polynomial,
    format_rational,
    format_session,
    parse_polynomial,
    parse_session,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
