"""Exact computer algebra for finite-dimensional loop-algebra representations
over number fields: classification by Galois orbits of Drinfeld-style
factored l-weights, base-change dimension formulas, tensor decomposition by
Galois descent, spectral-character blocks, and the commuting-generator series
identities.
"""

from .blocks import (
    SpectralCharacter,
    equivalent_chars,
    partition_blocks,
    same_block,
    spectral_character,
)
from .classify import (
    Decomposition,
    IrrClass,
    classify,
    compositum_degree,
    dim_weyl_f,
    dim_weyl_k,
    tensor_decompose_k,
    tp_irreducible_criterion,
)
from .errors import CertificateFailed, LoopRepError, RootDataInconsistency
from .exact import (
    FieldElem,
    MatrixL,
    NumberField,
    PolyQ,
    SmithForm,
    char_poly,
    poly_gcd,
    smith_normal_form,
)
from .galois import (
    GaloisContext,
    build_context,
    context_from_json,
    cyclotomic_context,
    gaussian_context,
    rational_context,
)
from .kxmodules import (
    KXModule,
    build_kx_module,
    char_poly_split_check,
    iso_test,
    multiplication_matrix,
    tensor_embedding_rank,
)
from .lweights import LWeight
from .roots import RootSystem, root_system
from .series import (
    SymPoly,
    TruncSeries,
    binom_poly,
    ev_lambda_check,
    eval_at,
    generic_lambda_series,
    h_from_lambda,
    h_series,
    h_symbol,
    lambda_alpha_from_simples,
    lambda_alpha_identity_holds,
    lambda_from_h,
    series_inverse,
    twist,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateFailed",
    "Decomposition",
    "FieldElem",
    "GaloisContext",
    "IrrClass",
    "KXModule",
    "LWeight",
    "LoopRepError",
    "MatrixL",
    "NumberField",
    "PolyQ",
    "RootDataInconsistency",
    "RootSystem",
    "SmithForm",
    "SpectralCharacter",
    "SymPoly",
    "TruncSeries",
    "binom_poly",
    "build_context",
    "build_kx_module",
    "char_poly",
    "char_poly_split_check",
    "classify",
    "compositum_degree",
    "context_from_json",
    "cyclotomic_context",
    "dim_weyl_f",
    "dim_weyl_k",
    "equivalent_chars",
    "ev_lambda_check",
    "eval_at",
    "gaussian_context",
    "generic_lambda_series",
    "h_from_lambda",
    "h_series",
    "h_symbol",
    "iso_test",
    "lambda_alpha_from_simples",
    "lambda_alpha_identity_holds",
    "lambda_from_h",
    "multiplication_matrix",
    "partition_blocks",
    "poly_gcd",
    "rational_context",
    "root_system",
    "same_block",
    "series_inverse",
    "smith_normal_form",
    "spectral_character",
    "tensor_decompose_k",
    "tensor_embedding_rank",
    "tp_irreducible_criterion",
    "twist",
]
