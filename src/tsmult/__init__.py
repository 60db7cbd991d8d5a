"""Exact multiplier-ideal and microlocal V-filtration invariants of
diagonal hypersurface germs and their separated-variable sums."""

from .errors import (ChainKindError, DimensionMismatch, GermParseError,
                     GermUnsupported, NotReduced, OracleMismatch, ResourceLimit,
                     TsmultError, WindowExceeded)
from .monomial import (MonomialIdeal, QuotientBasis, ScaledIdeal, external_product,
                       ideal_sum)
from .filtration import (JumpChain, JumpSet, JumpStep, chain_from_model,
                         graded_at, j_lookup, jumpset_of, periodic_extend,
                         usual_jumpset, v_lookup, v_to_j)
from .germs import (Germ, alpha_tilde, diagonal_microlocal_chain,
                    diagonal_usual_chain, lct, milnor_number,
                    one_var_microlocal_chain, one_var_usual_chain,
                    one_var_weight, ts_sum)
from .convolution import (AlphaOneReport, GradedSummand, alpha_one_sequence_check,
                          irrationality_dim, irrationality_module, ts_convolve_chains,
                          ts_graded, ts_jumpset, ts_lct, ts_multiplier)
from .spectral import (EigenTable, Spectrum, consistency_check, fold_spectrum,
                       one_var_eigentable, phi_convolve, spectrum_convolve,
                       spectrum_of)
from .oracles import (Constraint, MonteCarloCase, MonteCarloConfig, fm_feasible,
                      mc_case_set, monte_carlo_integrable, newton_membership,
                      one_var_integrable, exact_monomial_integrable,
                      summation_path)

__version__ = "0.1.0"

__all__ = [
    "AlphaOneReport", "ChainKindError", "Constraint", "DimensionMismatch",
    "EigenTable", "Germ", "GermParseError", "GermUnsupported", "GradedSummand",
    "JumpChain", "JumpSet", "JumpStep", "MonomialIdeal", "MonteCarloCase",
    "MonteCarloConfig", "NotReduced", "OracleMismatch", "QuotientBasis",
    "ResourceLimit", "ScaledIdeal", "Spectrum", "TsmultError",
    "WindowExceeded", "alpha_one_sequence_check", "alpha_tilde",
    "chain_from_model", "consistency_check", "diagonal_microlocal_chain",
    "diagonal_usual_chain", "exact_monomial_integrable", "external_product",
    "fm_feasible", "fold_spectrum", "graded_at", "ideal_sum",
    "irrationality_dim", "irrationality_module", "j_lookup", "jumpset_of",
    "lct", "mc_case_set", "milnor_number", "monte_carlo_integrable",
    "newton_membership", "one_var_eigentable", "one_var_integrable",
    "one_var_microlocal_chain", "one_var_usual_chain", "one_var_weight",
    "periodic_extend", "phi_convolve", "spectrum_convolve", "spectrum_of",
    "summation_path", "ts_convolve_chains", "ts_graded", "ts_jumpset",
    "ts_lct", "ts_multiplier", "ts_sum", "usual_jumpset", "v_lookup", "v_to_j",
]
