"""Approximate Gauss-Lucas properties of rational functions.

The classical Gauss-Lucas theorem confines all critical points of a
polynomial to the convex hull of its zeros.  This package explores the
approximate version: if at least k of the n zeros and poles of a rational
function lie in a bounded convex region, how small an eps guarantees that at
least k - 1 critical points lie in the closed eps-neighborhood?  It provides
closed-form sufficient bounds, a Rouche certificate that never
locates critical points, direct counting, and extremal searches for the
sharpest eps.
"""

from .bounds import (BoundEntry, BoundReport, bound_report, bound_table,
                     bound_table_csv, eps_threshold_disk,
                     eps_threshold_general, psi1_biernacki, psi1_disk_bound,
                     psi1_kakeya, psi1_marden, ragl_disk_holds,
                     ragl_general_holds)
from .certifier import (ExclusionBall, ExclusionSet, RoucheCertificate,
                        certify, exclusion_set, find_contour,
                        perturb_to_simple, rouche_margin, split_instance,
                        winding_count)
from .engine import AGLReport, agl_report, count_in, random_instance
from .errors import (AGLError, ContourBoundaryConflict, ContourNotFound,
                     HypothesisUnmet, InsufficientCriticalPoints,
                     MarginNonPositive, MultiplicityViolation,
                     NonConvergence, NonIntegerWinding, SampleAtSingularity)
from .extremal import (AsymptoticRow, ProbeRow, SearchResult,
                       asymptotic_experiment, conjecture_probe,
                       required_epsilon, search_psi)
from .rational import (CLUSTER_TOL, ROOT_TOL, RationalFunction, RootSet,
                       critical_points, from_points, log_derivative,
                       log_derivative_values, poly_roots, rational_product)
from .regions import (CONTOUR_TOL, MEMBERSHIP_TOL, ConvexPolygon,
                      ConvexRegion, Disk, OffsetContour, Segment, centroid,
                      convex_hull_region, diameter, distance, distances,
                      in_neighborhood, offset_contour, sample_point,
                      scale_region)
from .svg import Scene, render_svg

__version__ = "0.1.0"

__all__ = [
    "AGLError", "AGLReport", "AsymptoticRow", "BoundEntry", "BoundReport",
    "CLUSTER_TOL", "CONTOUR_TOL", "ContourBoundaryConflict", "ContourNotFound",
    "ConvexPolygon", "ConvexRegion", "Disk", "ExclusionBall", "ExclusionSet",
    "HypothesisUnmet", "InsufficientCriticalPoints", "MEMBERSHIP_TOL",
    "MarginNonPositive", "MultiplicityViolation", "NonConvergence",
    "NonIntegerWinding", "OffsetContour", "ProbeRow", "ROOT_TOL",
    "RationalFunction", "RootSet", "RoucheCertificate", "SampleAtSingularity",
    "Scene", "SearchResult", "Segment", "agl_report", "asymptotic_experiment",
    "bound_report", "bound_table", "bound_table_csv", "centroid", "certify",
    "conjecture_probe", "convex_hull_region", "count_in", "critical_points",
    "diameter", "distance", "distances", "eps_threshold_disk",
    "eps_threshold_general", "exclusion_set", "find_contour", "from_points",
    "in_neighborhood", "log_derivative", "log_derivative_values",
    "offset_contour", "perturb_to_simple", "poly_roots", "psi1_biernacki",
    "psi1_disk_bound", "psi1_kakeya", "psi1_marden", "ragl_disk_holds",
    "ragl_general_holds", "random_instance", "rational_product", "render_svg",
    "required_epsilon", "rouche_margin", "sample_point", "scale_region",
    "search_psi", "split_instance", "winding_count",
]
