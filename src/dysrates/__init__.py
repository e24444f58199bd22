"""Contraction and averagedness factors for Davis-Yin three-operator
splitting, computed and certified on the complex plane.

The package builds scaled-relative-graph regions for operator classes,
evaluates and maximizes the splitting symbol over region boundaries with a
certified upper bound, provides the closed-form factors with their
preconditions, and cross-checks everything against 2x2 scaled-rotation
realizations held as complex numbers.
"""

from .classes import (Averaged, Cocoercive, Lipschitz, Monotone,
                      OperatorClassSpec, PreflightReport,
                      ShiftedLipschitzBall, StronglyMonotone, averaged,
                      cocoercive, dys_preflight, enlarge_C, is_monotone_class,
                      lipschitz, monotone, resolvent_srg,
                      shifted_lipschitz_ball, srg, strongly_monotone)
from .errors import (DysRatesError, EmptyRegionError, InvalidClassError,
                     PreconditionError, SingularResolventError,
                     UnboundedRegionError, UnsupportedInversionError,
                     UnsupportedOrientationError)
from .geometry import (Arc, BoundaryGrid, Disk, DiskExterior, HalfPlane,
                       Region, Segment, boundary_grid, boundary_pieces,
                       has_left_arc_property, has_right_arc_property)
from .rates import (AveragednessReport, DominanceReport, ParameterRanges,
                    RateReport, averagedness_thm41, contraction_thm31,
                    contraction_thm32, contraction_thm33, default_eps,
                    default_eta, dominance_check)
# the search function is not re-exported: dysrates.search is its module
from .search import (SearchResult, coordinate_polish, grid_evaluate,
                     search_regions)
from .symbol import DysParams, zeta
from .verify import (VerificationReport, class_membership, dys_matrix,
                     operator_from_resolvent_point, verify_averagedness,
                     verify_contraction)

__version__ = "0.1.0"
