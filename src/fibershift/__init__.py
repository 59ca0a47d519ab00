"""Numerical toolkit for shift-invariant subspaces of vector-valued
function spaces on a finite truncation lattice.

Functions on the unit circle with values in a truncated Hardy space are
modeled on a grid of roots of unity with z-degrees capped at n_z. The
package computes range functions of generated subspaces, tests invariance
under the fiberwise shift, extracts wandering parts, recognizes full Hardy
subspaces, factors invariant subspaces through partial isometry fields,
and specializes to classical inner-function extraction when the
coordinate space is one dimensional.
"""

from .beurling import (InnerField, ScalarH2, inner_from_invariant,
                       inner_quotient, phi_representation, range_of_phi)
from .errors import (BandExceeded, BaseNotConstant, BoundsError,
                     CoordinateOverflow, DegreeOverflow, FibershiftError,
                     ImagesDiffer, NotInner, NotInvariant, NotOrthogonal,
                     NotPartialIsometry, NotUnimodular, ParseError,
                     RangesDiffer, RankTooLarge, ToleranceAmbiguity,
                     WanderingRankNotOne)
from .factorization import (CONNECTING_KEYS, DIAGNOSTIC_KEYS,
                            DecompositionResult, SymbolField,
                            connecting_isometry, decompose, decompose_range,
                            initial_space_base, verify_decomposition)
from .fields import FiberedField, LaurentPolyField, eval_field, z_degree
from .fileio import (ProblemFile, Report, load_decomposition, load_problem,
                     problem_fields, render_csv, render_text,
                     save_decomposition)
from .full_hardy import (full_hardy_complement, full_hardy_from_base,
                         is_full_hardy, project_pointwise)
from .lattice import TruncationLattice
from .ranges import (RangeFunctionH, RangeFunctionK, complement_range,
                     direct_sum_ranges, member, range_from_generators,
                     spectrum)
from .shifts import (apply_S_hat, apply_U, apply_U_star, is_S_invariant,
                     shat_closure, shift_matrix)
from .subspaces import orthonormal_frame, subspace_distance
from .wandering import (reconstruct_from_wandering, wandering_range,
                        wandering_ranks)

__version__ = "0.1.0"

__all__ = [
    "TruncationLattice", "FiberedField", "LaurentPolyField", "eval_field",
    "z_degree",
    "RangeFunctionH", "RangeFunctionK",
    "range_from_generators", "member", "complement_range",
    "direct_sum_ranges", "spectrum",
    "apply_U", "apply_U_star", "apply_S_hat", "shift_matrix", "shat_closure",
    "is_S_invariant",
    "wandering_range", "wandering_ranks", "reconstruct_from_wandering",
    "project_pointwise", "full_hardy_from_base", "is_full_hardy",
    "full_hardy_complement",
    "DecompositionResult", "SymbolField", "decompose", "decompose_range",
    "verify_decomposition", "connecting_isometry",
    "initial_space_base", "DIAGNOSTIC_KEYS", "CONNECTING_KEYS",
    "ScalarH2", "InnerField", "inner_from_invariant", "phi_representation",
    "range_of_phi", "inner_quotient",
    "ProblemFile", "Report", "load_problem", "problem_fields",
    "load_decomposition", "save_decomposition", "render_text", "render_csv",
    "orthonormal_frame", "subspace_distance",
    "FibershiftError", "DegreeOverflow", "CoordinateOverflow",
    "ToleranceAmbiguity", "NotOrthogonal", "NotInvariant", "RankTooLarge",
    "BandExceeded", "BaseNotConstant", "WanderingRankNotOne", "NotInner",
    "NotUnimodular", "RangesDiffer", "ImagesDiffer", "NotPartialIsometry",
    "ParseError", "BoundsError",
]
