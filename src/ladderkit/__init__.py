"""Ladder algebras on finite index windows: ordered factorizations of their
unitary exponentials, transition-amplitude families with recursions, exact
coefficient diagrams, spin rotations and phase operators, all certified
against a brute-force matrix-exponential oracle."""

from .algebra import (AlgebraSpec, IndexWindow, LadderMatrices,
                      build_matrices, commutator_residual, detect_blocks,
                      lambda_coupling, lambda_sq, padded_window,
                      suggested_pad)
from .errors import (ConvergenceError, LadderError, NonUnitaryRegime,
                     PoleError, SingularS)
from .expm import (ExpmResult, expm, operator_matrix, oracle_element,
                   pad_sufficiency)
from .factorization import (OrderedForm, U2Factors, antinormal_core,
                            antinormal_reach, factorization_residual,
                            ordered_form, ordered_product, reduces_to_u1,
                            u2_factors)
from .gn import (GnEvaluation, Hyp2F1Sum, a_n, bar_gn, bessel_jn, gn_auto,
                 gn_bessel_limit, gn_closed, gn_oracle, gn_series,
                 gn_sho_limit, gnm, hyp2f1_series, recursion_residual,
                 tilde_bar_variants, tilde_gn, variant_recursion_residual)
from .phase import (phase_commutator, phase_element, phase_gn, phase_gnm,
                    phase_matrices, phase_oracle_element,
                    phase_recursion_residual)
from .rotations import (RotationSpec, SpinMatrices, antinormal_rotation,
                        build_spin, j1_reference_matrix, j1_xaxis_reference,
                        m_rephasing, rotation_direct, rotation_factorized)
from .triangles import (CoeffDiagram, WeightRule, bar_rule, column_series,
                        gauss_bar_rule, gauss_tilde_rule, generate,
                        lambda_rule, lambda_symmetric_rule,
                        path_count_diagram,
                        render_ascii, row_sums, series_match, sumrule_check,
                        tilde_rule, to_records, unit_rule)

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec", "IndexWindow", "LadderMatrices", "build_matrices",
    "commutator_residual", "detect_blocks", "lambda_coupling", "lambda_sq",
    "padded_window", "suggested_pad",
    "LadderError", "NonUnitaryRegime", "PoleError", "ConvergenceError",
    "SingularS",
    "ExpmResult", "expm", "operator_matrix", "oracle_element",
    "pad_sufficiency",
    "OrderedForm", "U2Factors", "u2_factors", "ordered_form",
    "ordered_product", "factorization_residual", "antinormal_core",
    "antinormal_reach", "reduces_to_u1",
    "GnEvaluation", "Hyp2F1Sum", "hyp2f1_series", "a_n", "gn_closed",
    "gn_series", "gn_oracle", "gn_auto", "gn_sho_limit", "gn_bessel_limit",
    "bessel_jn", "recursion_residual", "tilde_gn", "bar_gn",
    "tilde_bar_variants", "variant_recursion_residual", "gnm",
    "WeightRule", "CoeffDiagram", "unit_rule", "tilde_rule", "bar_rule",
    "gauss_tilde_rule", "gauss_bar_rule", "lambda_rule",
    "lambda_symmetric_rule",
    "generate", "column_series", "series_match", "row_sums",
    "sumrule_check", "path_count_diagram", "render_ascii", "to_records",
    "RotationSpec", "SpinMatrices", "build_spin", "rotation_factorized",
    "rotation_direct", "antinormal_rotation", "j1_reference_matrix",
    "j1_xaxis_reference", "m_rephasing",
    "phase_matrices", "phase_commutator", "phase_element", "phase_gn",
    "phase_gnm", "phase_recursion_residual", "phase_oracle_element",
]
