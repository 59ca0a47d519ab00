"""Numerical toolkit for shift-invariant subspaces of vector-valued
function spaces on a finite truncation lattice.

Functions on the unit circle with values in a truncated Hardy space are
modeled on a grid of roots of unity with z-degrees capped at n_z. A range
function holds one subspace per grid point, so it reduces the grid rotation
by construction. The pipeline spans the generators and their fiberwise
shifts into a range function, tests its invariance under the fiberwise
shift, extracts its wandering part and factors the subspace through the
symbol Phi of a partial isometry field; when the coordinate space is one
dimensional, Phi is the classical inner function. Full Hardy subspaces,
which reduce both shifts, are recognized and built from their bases.
"""

from .beurling import (InnerField, ScalarH2, inner_from_invariant,
                       inner_quotient, phi_representation, range_of_phi)
from .errors import (BaseNotConstant, BoundsError, CoordinateOverflow,
                     DegreeOverflow, FibershiftError, ImagesDiffer, NotInner,
                     NotInvariant, NotPartialIsometry, NotUnimodular,
                     ParseError, RangesDiffer, RankTooLarge,
                     ToleranceAmbiguity, WanderingRankNotOne)
from .factorization import (CONNECTING_KEYS, DIAGNOSTIC_KEYS,
                            DecompositionResult, SymbolField,
                            connecting_isometry, decompose, decompose_range,
                            initial_space_base, verify_decomposition)
from .fields import FiberedField, LaurentPolyField, eval_field, z_degree
from .fileio import (ProblemFile, Report, load_decomposition, load_problem,
                     problem_fields, render_csv, render_text,
                     save_decomposition)
from .full_hardy import full_hardy_from_base, is_full_hardy, project_pointwise
from .lattice import TruncationLattice
from .ranges import (RangeFunctionH, RangeFunctionK, closure_range,
                     complement_range, range_from_generators)
from .shifts import apply_S_hat, is_S_invariant, shat_closure
from .subspaces import orthonormal_frame, subspace_distance
from .wandering import wandering_range, wandering_ranks

__version__ = "0.1.0"

__all__ = [
    "TruncationLattice", "FiberedField", "LaurentPolyField", "eval_field",
    "z_degree",
    "RangeFunctionH", "RangeFunctionK",
    "range_from_generators", "closure_range", "complement_range",
    "apply_S_hat", "shat_closure", "is_S_invariant",
    "wandering_range", "wandering_ranks",
    "project_pointwise", "full_hardy_from_base", "is_full_hardy",
    "DecompositionResult", "SymbolField", "decompose", "decompose_range",
    "verify_decomposition", "connecting_isometry",
    "initial_space_base", "DIAGNOSTIC_KEYS", "CONNECTING_KEYS",
    "ScalarH2", "InnerField", "inner_from_invariant", "phi_representation",
    "range_of_phi", "inner_quotient",
    "ProblemFile", "Report", "load_problem", "problem_fields",
    "load_decomposition", "save_decomposition", "render_text", "render_csv",
    "orthonormal_frame", "subspace_distance",
    "FibershiftError", "DegreeOverflow", "CoordinateOverflow",
    "ToleranceAmbiguity", "NotInvariant", "RankTooLarge",
    "BaseNotConstant", "WanderingRankNotOne", "NotInner",
    "NotUnimodular", "RangesDiffer", "ImagesDiffer", "NotPartialIsometry",
    "ParseError", "BoundsError",
]
