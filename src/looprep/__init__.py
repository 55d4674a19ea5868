"""Exact computer algebra for finite-dimensional loop-algebra representations
over number fields: classification by Galois orbits of Drinfeld-style
factored l-weights, base-change dimension formulas, tensor decomposition by
Galois descent, spectral-character blocks, and the commuting-generator series
identities.

Importing the package loads none of its modules: each public name is
resolved from the module that defines it on first use (PEP 562), so a
program pays only for the layers it touches.
"""

import sys
from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "blocks": ("SpectralCharacter", "partition_blocks", "same_block", "spectral_character"),
    "classify": ("Decomposition", "IrrClass", "classify", "compositum_degree",
                 "dim_weyl_f", "dim_weyl_k", "tensor_decompose_k",
                 "tp_irreducible_criterion"),
    "errors": ("CertificateFailed", "LoopRepError", "RootDataInconsistency"),
    "exact": ("FieldElem", "MatrixL", "NumberField", "SmithForm", "char_poly",
              "smith_normal_form"),
    "galois": ("GaloisContext", "build_context", "context_from_json", "cyclotomic_context",
               "gaussian_context", "rational_context"),
    "kxmodules": ("KXModule", "build_kx_module", "char_poly_split_check", "iso_test",
                  "multiplication_matrix", "tensor_embedding_rank"),
    "lweights": ("LWeight",),
    "roots": ("RootSystem", "root_system"),
    "series": ("SymPoly", "TruncSeries", "binom_poly", "ev_lambda_check", "eval_at",
               "h_from_lambda", "h_series", "h_symbol", "lambda_alpha_from_simples",
               "lambda_alpha_identity_holds", "lambda_from_h", "series_inverse"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(type(sys)):
    """The import system binds each loaded submodule on its package; a public
    name keeps its own object (the function classify, not its module)."""

    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, type(sys))):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
