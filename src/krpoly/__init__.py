"""Polytope model of Kirillov-Reshetikhin crystals for affine type A.

Crystals B^{r,s} are realized as grids of non-negative integers bounded
by staircase path sums.  The package provides the classical and affine
crystal operators, tensor products, the combinatorial R-matrix, local and
global energy functions, Nakajima monomial certificates, perfectness
checks and ground-state paths, plus exhaustive verification suites that
pit each closed construction against an independent brute-force oracle.
"""

from .energy import (
    global_energy,
    local_energy,
    local_energy_hw,
    local_energy_oracle,
)
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InconsistentRecursion,
    InvalidParams,
    KRError,
    LevelMismatch,
    NegativeEntry,
    NotHighestWeight,
    OracleFailure,
    PathSumExceeded,
    SizeLimitExceeded,
)
from .graph import CrystalGraph, build_graph
from .nakajima import Monomial, MonomialCrystal, psi_embedding
from .patterns import (
    KRParams,
    KRPattern,
    enumerate_crystal,
    pattern_from_cells,
    pattern_from_dict,
    pivot,
    validate_pattern,
    zero_pattern,
)
from .perfect import (
    DominantWeight,
    GroundStatePath,
    PerfectReport,
    b_lower,
    b_upper,
    check_perfect,
    dominant_weights,
    eps_profile,
    ground_state_path,
    phi_profile,
)
from .regularity import RegularityReport, is_regular_rank2
from .rmatrix import (
    highest_weight_elements,
    rmatrix_from_hw,
    rmatrix_on_hw,
    rmatrix_oracle,
    to_highest_weight,
)
from .tensor import TensorElement, is_classical_hw, product_elements, tensor_from_dict

__version__ = "0.1.0"
