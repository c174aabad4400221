"""Polytope model of Kirillov-Reshetikhin crystals for affine type A.

Crystals B^{r,s} are realized as grids of non-negative integers bounded
by staircase path sums.  The package provides the classical and affine
crystal operators, tensor products, the combinatorial R-matrix, local and
global energy functions, Nakajima monomial certificates, perfectness
checks and ground-state paths, plus exhaustive verification suites that
pit each closed construction against an independent brute-force oracle.

``import krpoly`` loads no submodule.  Each name of ``__all__``, and each
submodule read as ``krpoly.<name>``, is imported on first access (PEP 562
module ``__getattr__``) and kept on the package from then on, so ``from
krpoly import X`` loads only the module that defines X and what it imports.
"""

import importlib

__version__ = "0.1.0"

# the exported names, by the submodule that defines them
_EXPORTS = {
    "energy": ("global_energy", "local_energy", "local_energy_hw", "local_energy_oracle"),
    "errors": (
        "DimensionMismatch",
        "IndexOutOfRange",
        "InconsistentRecursion",
        "InvalidParams",
        "KRError",
        "LevelMismatch",
        "NegativeEntry",
        "NotHighestWeight",
        "OracleFailure",
        "PathSumExceeded",
        "SizeLimitExceeded",
    ),
    "graph": ("CrystalGraph", "build_graph"),
    "nakajima": ("Monomial", "MonomialCrystal", "psi_embedding"),
    "patterns": (
        "KRParams",
        "KRPattern",
        "enumerate_crystal",
        "pattern_from_cells",
        "pattern_from_dict",
        "pivot",
        "validate_pattern",
        "zero_pattern",
    ),
    "perfect": (
        "DominantWeight",
        "GroundStatePath",
        "PerfectReport",
        "b_lower",
        "b_upper",
        "check_perfect",
        "dominant_weights",
        "eps_profile",
        "ground_state_path",
        "phi_profile",
    ),
    "regularity": ("RegularityReport", "is_regular_rank2"),
    "rmatrix": (
        "highest_weight_elements",
        "rmatrix_from_hw",
        "rmatrix_on_hw",
        "rmatrix_oracle",
        "to_highest_weight",
    ),
    "tensor": ("TensorElement", "is_classical_hw", "product_elements", "tensor_from_dict"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "table", "verify"})

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
