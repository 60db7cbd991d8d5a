"""Exact multiplier-ideal and microlocal V-filtration invariants of
diagonal hypersurface germs and their separated-variable sums.

The exceptions are bound on import; every other public name is read from
its defining submodule on each access, so ``import tsmult`` loads no numpy
and ``python -m tsmult`` can set up the environment first.
"""

import sys
from importlib import import_module
from types import ModuleType

from .errors import (ChainKindError, DimensionMismatch, GermParseError,
                     GermUnsupported, NotReduced, OracleMismatch, ResourceLimit,
                     TsmultError, WindowExceeded)

__version__ = "0.1.0"

# name -> defining module; nothing resolved is cached here, so a name always
# reads the module's current binding
_LAZY = {name: f"tsmult.{module}" for module, names in (
    ("monomial", "MonomialIdeal QuotientBasis ScaledIdeal external_product ideal_sum"),
    ("filtration", "JumpChain JumpSet JumpStep graded_at j_lookup jumpset_of "
                   "periodic_extend usual_jumpset v_lookup v_to_j"),
    ("germs", "Germ alpha_tilde diagonal_microlocal_chain diagonal_usual_chain lct "
              "milnor_number one_var_microlocal_chain one_var_usual_chain one_var_weight "
              "ts_sum"),
    ("convolution", "AlphaOneReport GradedSummand alpha_one_sequence_check irrationality_dim "
                    "irrationality_module ts_convolve_chains ts_graded ts_jumpset ts_lct "
                    "ts_multiplier"),
    ("spectral", "EigenTable Spectrum consistency_check fold_spectrum one_var_eigentable "
                 "phi_convolve spectrum_convolve spectrum_of"),
    ("oracles", "Constraint MonteCarloCase MonteCarloConfig exact_monomial_integrable "
                "fm_feasible mc_case_set monte_carlo_integrable newton_membership "
                "one_var_integrable summation_path"),
) for name in names.split()}

__all__ = sorted([
    "ChainKindError", "DimensionMismatch", "GermParseError", "GermUnsupported",
    "NotReduced", "OracleMismatch", "ResourceLimit", "TsmultError", "WindowExceeded",
    *_LAZY])


class _Export:
    """A package attribute that reads its defining module's binding, importing
    that module on first use.  It has no __set__, so an assignment to the
    package attribute shadows it, as for any module global."""

    __slots__ = ("module", "name")

    def __init__(self, module: str, name: str):
        self.module, self.name = module, name

    def __get__(self, package, owner=None):
        return getattr(sys.modules.get(self.module) or import_module(self.module), self.name)


class _Package(ModuleType):
    # a miss in a module's dict costs an AttributeError before a PEP 562
    # __getattr__ runs (~1 us on Python 3.11); a class attribute costs none
    def __dir__(self) -> list[str]:
        return sorted({*vars(self), *_LAZY})


for _name, _module in _LAZY.items():
    setattr(_Package, _name, _Export(_module, _name))
sys.modules[__name__].__class__ = _Package
del _name, _module
