"""Every public entry point answers a malformed argument with a KRError.

The grid puts each of 13 malformed values into one argument slot at a
time of every export of ``krpoly`` that takes an argument, and of the
element methods, with valid values in the other slots.  A value that is a
valid argument in its slot (5 as a rank, a pattern where a pattern goes)
is listed as accepted there and must return; any other value must raise a
KRError, never a bare TypeError or AttributeError.
"""

import pytest

from krpoly import (
    CrystalGraph,
    DominantWeight,
    GroundStatePath,
    KRError,
    KRParams,
    KRPattern,
    Monomial,
    MonomialCrystal,
    PerfectReport,
    RegularityReport,
    TensorElement,
    b_lower,
    b_upper,
    build_graph,
    check_perfect,
    dominant_weights,
    enumerate_crystal,
    eps_profile,
    global_energy,
    ground_state_path,
    highest_weight_elements,
    is_classical_hw,
    is_regular_rank2,
    local_energy,
    local_energy_hw,
    local_energy_oracle,
    pattern_from_cells,
    pattern_from_dict,
    phi_profile,
    pivot,
    product_elements,
    psi_embedding,
    rmatrix_from_hw,
    rmatrix_on_hw,
    rmatrix_oracle,
    tensor_from_dict,
    to_highest_weight,
    validate_pattern,
    zero_pattern,
)

P = KRParams(2, 1, 1)
Q = KRParams(2, 2, 1)
B = zero_pattern(P)
X = TensorElement((B, zero_pattern(Q)))
W = DominantWeight((1, 0, 0))
GRAPH = build_graph(enumerate_crystal(Q), [0, 1, 2])
A2 = MonomialCrystal()
M = psi_embedding(B)

MALFORMED = {
    "None": None,
    "5": 5,
    "-1": -1,
    "True": True,
    "2.0": 2.0,
    '"3"': "3",
    "[1, 2]": [1, 2],
    "(1, 2)": (1, 2),
    "pattern": B,
    "two-fold": X,
    "three-fold": TensorElement((B, B, B)),
    "foreign params": KRParams(3, 1, 1),
    "{}": {},
}
EVERY = set(MALFORMED)
ELEMENTS = {"pattern", "two-fold", "three-fold"}

# name -> (callable, valid arguments, {slot: the malformed values valid there}).
# KRPattern is the unchecked constructor (validate_pattern is the checked
# one), and the three reports are records that hold what they are given.
ENTRY_POINTS = {
    "global_energy": (global_energy, [X, None], {0: {"two-fold", "three-fold"}, 1: {"None"}}),
    "local_energy": (local_energy, [X], {0: {"two-fold"}}),
    "local_energy_hw": (local_energy_hw, [X], {0: {"two-fold"}}),
    "local_energy_oracle": (local_energy_oracle, [P, Q, None], {2: {"None"}}),
    "CrystalGraph": (CrystalGraph, [[B], [1], None], {0: {"{}"}, 1: {"{}"}}),
    "build_graph": (build_graph, [[B], [1], 100], {0: {"{}"}, 1: {"{}"}}),
    "Monomial": (Monomial, [()], {}),
    "MonomialCrystal.wt": (A2.wt, [M], {}),
    "MonomialCrystal.phi": (A2.phi, [M, 1], {}),
    "MonomialCrystal.eps": (A2.eps, [M, 1], {}),
    "MonomialCrystal.nf": (A2.nf, [M, 1], {}),
    "MonomialCrystal.ne": (A2.ne, [M, 1], {}),
    "MonomialCrystal.multiplier": (A2.multiplier, [1, 0], {1: {"5", "-1"}}),
    "MonomialCrystal.f": (A2.f, [M, 1], {}),
    "MonomialCrystal.e": (A2.e, [M, 1], {}),
    "psi_embedding": (psi_embedding, [B], {0: {"pattern"}}),
    "KRParams": (KRParams, [2, 1, 1], {0: {"5"}, 2: {"5"}}),
    "KRPattern": (KRPattern, [P, ((0,), (0,))], {0: EVERY, 1: EVERY}),
    "enumerate_crystal": (enumerate_crystal, [P, 100], {0: {"foreign params"}, 1: {"5"}}),
    "pattern_from_cells": (pattern_from_cells, [P, lambda p, q: 0], {0: {"foreign params"}}),
    "pattern_from_dict": (pattern_from_dict, [B.to_dict()], {}),
    "pivot": (pivot, [B, 2], {0: {"pattern"}}),
    "validate_pattern": (validate_pattern, [[[0], [0]], P], {}),
    "zero_pattern": (zero_pattern, [P], {0: {"foreign params"}}),
    "DominantWeight": (DominantWeight, [(1, 0, 0)], {0: {"(1, 2)"}}),
    "GroundStatePath": (GroundStatePath, [P, (W,), (B,)], {0: EVERY, 1: EVERY, 2: EVERY}),
    "PerfectReport": (PerfectReport, [P], {0: EVERY}),
    "b_lower": (b_lower, [W, P], {}),
    "b_upper": (b_upper, [W, P], {}),
    "check_perfect": (check_perfect, [P], {0: {"foreign params"}}),
    "dominant_weights": (dominant_weights, [2, 1], {0: {"5"}, 1: {"5"}}),
    "eps_profile": (eps_profile, [B], {0: ELEMENTS}),
    "ground_state_path": (ground_state_path, [W, P, 2], {2: {"5"}}),
    "phi_profile": (phi_profile, [B], {0: ELEMENTS}),
    "RegularityReport": (RegularityReport, [(1, 2), -1], {0: EVERY, 1: EVERY}),
    "is_regular_rank2": (is_regular_rank2, [GRAPH, (1, 2)], {1: {"[1, 2]", "(1, 2)"}}),
    "highest_weight_elements": (highest_weight_elements, [P, Q], {}),
    "rmatrix_from_hw": (rmatrix_from_hw, [X, ()], {0: {"two-fold"}, 1: {"[1, 2]", "(1, 2)"}}),
    "rmatrix_on_hw": (rmatrix_on_hw, [X], {0: {"two-fold"}}),
    "rmatrix_oracle": (rmatrix_oracle, [P, Q], {}),
    "to_highest_weight": (to_highest_weight, [X], {0: {"two-fold"}}),
    "TensorElement": (TensorElement, [(B, B)], {}),
    "is_classical_hw": (is_classical_hw, [X], {0: ELEMENTS}),
    "product_elements": (product_elements, [[P, Q], 100], {}),
    "tensor_from_dict": (tensor_from_dict, [X.to_dict()], {}),
    # element methods; a cell off the grid reads as entry zero
    "KRPattern.a": (B.a, [1, 2], {0: {"5", "-1"}, 1: {"5", "-1"}}),
    "KRPattern.corner_sum": (B.corner_sum, [1, 2], {0: {"5", "-1"}, 1: {"5", "-1"}}),
    "KRPattern.phi": (B.phi, [1], {}),
    "KRPattern.eps": (B.eps, [1], {}),
    "KRPattern.f": (B.f, [1], {}),
    "KRPattern.e": (B.e, [1], {}),
    "TensorElement.phi": (X.phi, [1], {}),
    "TensorElement.eps": (X.eps, [1], {}),
    "TensorElement.f": (X.f, [1], {}),
    "TensorElement.e": (X.e, [1], {}),
    "TensorElement.e_slot": (X.e_slot, [1], {}),
}
SLOTS = [(name, slot) for name, (_, args, _) in ENTRY_POINTS.items() for slot in range(len(args))]


def test_the_grid_covers_every_export_that_takes_an_argument():
    import krpoly

    exports = {
        name
        for name, value in vars(krpoly).items()
        if callable(value) and not name.startswith("_")
        and not (isinstance(value, type) and issubclass(value, Exception))
    }
    probed = {name.split(".")[0] for name in ENTRY_POINTS}
    assert exports - probed == set()


@pytest.mark.parametrize("name, slot", SLOTS, ids=[f"{name}[{slot}]" for name, slot in SLOTS])
def test_every_entry_point_refuses_every_malformed_value(name, slot):
    call, args, valid = ENTRY_POINTS[name]
    accepted = valid.get(slot, set())
    wrong = []
    for label, value in MALFORMED.items():
        probe = list(args)
        probe[slot] = value
        try:
            call(*probe)
        except KRError:
            if label in accepted:
                wrong.append(f"{label}: refused")
        except Exception as err:
            wrong.append(f"{label}: bare {type(err).__name__}: {err}")
        else:
            if label not in accepted:
                wrong.append(f"{label}: accepted")
    assert not wrong, wrong
