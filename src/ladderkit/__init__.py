"""Ladder algebras on finite index windows: ordered factorizations of their
unitary exponentials, transition-amplitude families with recursions, exact
coefficient diagrams, spin rotations and phase operators, all certified
against a brute-force matrix-exponential oracle."""

from .algebra import (AlgebraSpec, IndexWindow, LadderMatrices,
                      build_matrices, commutator_residual, detect_blocks,
                      lambda_coupling, lambda_sq, padded_window,
                      suggested_pad)
from .errors import (ConvergenceError, LadderError, NonUnitaryRegime,
                     PoleError)
from .expm import (ExpmResult, expm, operator_matrix, oracle_element,
                   pad_sufficiency)
from .factorization import (U2Factors, antinormal_core, antinormal_reach,
                            factorization_residual, ordered_product,
                            reduces_to_u1, u2_factors)
from .gn import (GnEvaluation, Hyp2F1Sum, a_n, bessel_jn, gn_auto,
                 gn_bessel_limit, gn_closed, gn_oracle, gn_series,
                 gn_sho_limit, gnm, hyp2f1_series, recursion_residual)
from .phase import phase_element, phase_gnm, phase_oracle_element
from .rotations import (RotationSpec, antinormal_rotation, rotation_direct,
                        rotation_factorized)
from .triangles import (CoeffDiagram, WeightRule, bar_rule, column_series,
                        gauss_bar_rule, gauss_tilde_rule, generate,
                        lambda_rule, lambda_symmetric_rule, render_ascii,
                        row_sums, sumrule_check, tilde_rule, to_records,
                        unit_rule)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "IndexWindow", "LadderMatrices", "build_matrices",
    "commutator_residual", "detect_blocks", "lambda_coupling", "lambda_sq",
    "padded_window", "suggested_pad",
    "LadderError", "NonUnitaryRegime", "PoleError", "ConvergenceError",
    "ExpmResult", "expm", "operator_matrix", "oracle_element",
    "pad_sufficiency",
    "U2Factors", "u2_factors", "ordered_product", "factorization_residual",
    "antinormal_core", "antinormal_reach", "reduces_to_u1",
    "GnEvaluation", "Hyp2F1Sum", "hyp2f1_series", "a_n", "gn_closed",
    "gn_series", "gn_oracle", "gn_auto", "gn_sho_limit", "gn_bessel_limit",
    "bessel_jn", "recursion_residual", "gnm",
    "WeightRule", "CoeffDiagram", "unit_rule", "tilde_rule", "bar_rule",
    "gauss_tilde_rule", "gauss_bar_rule", "lambda_rule",
    "lambda_symmetric_rule",
    "generate", "column_series", "row_sums", "sumrule_check",
    "render_ascii", "to_records",
    "RotationSpec", "rotation_factorized", "rotation_direct",
    "antinormal_rotation",
    "phase_element", "phase_gnm", "phase_oracle_element",
]
