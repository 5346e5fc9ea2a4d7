"""Exact-arithmetic verification engine for generalized Beauville
decompositions: Lie-algebra identities for Fourier-conjugate sl2 triples,
the motivic decomposition of an elliptic surface fibration, and
tautological-ring obstructions to theta divisors on nodal Jacobian
families."""

from .errors import OutsideModelError
from .scalars import GaussianRational, Rational
from .poly import Poly, discriminant_is_square, rational_roots
from .sparse import SparseMat, bracket, combination
from .mukai import (MukaiSpace, barred_fourier_matrix, fourier_matrix,
                    is_isometry, llv_model_space, mukai_class_space, theta_bar,
                    to_barred)
from .llv import (OperatorTable, build_triple, op_e, op_h,
                  primed_operators, random_quadruple,
                  standard_quadruple, verify_cross_triple,
                  verify_double_bracket_recovery, verify_fourier_compatibility,
                  verify_fourier_conjugacy, verify_isotropic_sl2_pairs,
                  verify_theta_replay, verify_verbitsky)
from .k3 import (THETA, bv, compose, diag_push, fourier_conjugate,
                 pair_to_rel, projectors, rel, rel_bracket, rel_compose,
                 sl2_cycles)
from .k3_mult import (abs_pair_push, abs_tri_push, bv_absolute_expression,
                      multiplicativity_difference, relbv_expression)
from .taut import (TautExpr, abelian_push, boundary_pull, gen, multiple,
                   open_restrict, weight_part)
from .dr import (TOP_WEIGHT_RELATION, AffineInt, BoundaryRelation,
                 corollary_theta_push, default_twist_polynomial)
from .obstruction import (AXIOMS, AssumptionLedger, ObstructionResult,
                          genus2_obstruction, genus3_obstruction,
                          high_genus_obstruction, kappa_exclusion_check,
                          single_node_theta, theta_delta_push)
from .report import Report, exit_code, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "AXIOMS", "AffineInt", "AssumptionLedger", "BoundaryRelation",
    "GaussianRational", "MukaiSpace", "ObstructionResult", "OperatorTable",
    "OutsideModelError", "Poly", "Rational", "Report", "SparseMat", "THETA",
    "TOP_WEIGHT_RELATION", "TautExpr", "abelian_push", "abs_pair_push",
    "abs_tri_push", "barred_fourier_matrix", "boundary_pull", "bracket",
    "build_triple", "bv", "bv_absolute_expression", "combination", "compose",
    "corollary_theta_push", "default_twist_polynomial", "diag_push",
    "discriminant_is_square", "exit_code", "fourier_conjugate",
    "fourier_matrix", "gen", "genus2_obstruction", "genus3_obstruction",
    "high_genus_obstruction", "is_isometry", "kappa_exclusion_check",
    "llv_model_space", "mukai_class_space", "multiple",
    "multiplicativity_difference", "op_e", "op_h", "open_restrict",
    "pair_to_rel", "primed_operators", "projectors", "random_quadruple",
    "rational_roots", "rel", "rel_bracket", "rel_compose", "relbv_expression",
    "render_json", "render_text", "single_node_theta", "sl2_cycles",
    "standard_quadruple", "theta_bar", "theta_delta_push", "to_barred",
    "verify_cross_triple", "verify_double_bracket_recovery",
    "verify_fourier_compatibility", "verify_fourier_conjugacy",
    "verify_isotropic_sl2_pairs", "verify_theta_replay", "verify_verbitsky",
    "weight_part",
]
