"""Pauli-string algebra against explicit 2x2 matrices (the independent oracle)."""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plaqising import PauliString
from plaqising.errors import InvalidSpec
from plaqising.pauli import sigma_x

from oracles import commutes_with

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"X": SX, "Y": SY, "Z": SZ}


def dense(ps: PauliString, n: int) -> np.ndarray:
    """Build the full 2^n matrix, site j acting on bit j of the state label.

    Bit 1 means spin-down (sz = -1), so basis index b has bit j = (b >> j) & 1
    and the single-site matrix acts on that qubit with |0> = up.
    """
    out = np.eye(1, dtype=complex)
    for j in range(n):
        m = MATS.get(dict(ps.factors).get(j, "-"), np.eye(2, dtype=complex))
        out = np.kron(m, out)  # site j varies fastest -> rightmost factor
    return ps.phase * out


def test_single_site_products_match_matrices():
    for a in "XYZ":
        for b in "XYZ":
            ps = PauliString(((0, a), (0, b)))
            np.testing.assert_allclose(dense(ps, 1), MATS[a] @ MATS[b], atol=1e-14)


def test_duplicate_site_merge():
    assert PauliString(((0, "X"), (0, "Y"))) == PauliString(((0, "Z"),), phase=1j)
    assert PauliString(((0, "X"), (0, "X"))) == PauliString()
    assert PauliString(((2, "Z"), (2, "X"))).factors == ((2, "Y"),)


def test_rejects_bad_input():
    with pytest.raises(InvalidSpec):
        PauliString(((-1, "X"),))
    with pytest.raises(InvalidSpec):
        PauliString(((0, "Q"),))
    with pytest.raises(InvalidSpec):
        PauliString(((0, "X"),), phase=0.5)


factor_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from("XYZ")),
    min_size=0,
    max_size=6,
)


@given(factor_lists, factor_lists)
def test_product_matches_matrix_product(fa, fb):
    a, b = PauliString(fa), PauliString(fb)
    np.testing.assert_allclose(
        dense(a * b, 4), dense(a, 4) @ dense(b, 4), atol=1e-12
    )


@given(factor_lists, factor_lists)
def test_commutes_with_matches_matrices(fa, fb):
    a, b = PauliString(fa), PauliString(fb)
    comm = dense(a, 4) @ dense(b, 4) - dense(b, 4) @ dense(a, 4)
    assert commutes_with(a, b) == bool(np.allclose(comm, 0, atol=1e-12))
    assert commutes_with(a, b) == commutes_with(b, a)


@given(factor_lists)
def test_masks_reproduce_matrix_action(fs):
    ps = PauliString(fs)
    n = 4
    flip, sign, pref = ps.masks()
    M = dense(ps, n)
    for b in range(2**n):
        col = M[:, b]
        target = b ^ flip
        amp = pref * (-1) ** bin(b & sign).count("1")
        expect = np.zeros(2**n, dtype=complex)
        expect[target] = amp
        np.testing.assert_allclose(col, expect, atol=1e-12)


HADAMARD_4 = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]]) / np.sqrt(2)] * 4)


@given(factor_lists)
def test_hadamard_rotation_matches_matrices(fs):
    ps = PauliString(fs)
    np.testing.assert_allclose(
        dense(ps.hadamard(), 4), HADAMARD_4 @ dense(ps, 4) @ HADAMARD_4, atol=1e-12
    )


@given(factor_lists)
def test_square_of_hermitian_string_is_identity(fs):
    ps = PauliString(fs)
    sq = ps * ps
    assert not (sq.x | sq.z)
    # phase^2 in {1, -1}: squares of +-1 and +-i respectively
    assert sq.phase == ps.phase * ps.phase


def test_support_and_helpers():
    ps = sigma_x(3) * PauliString(((1, "Z"),)) * PauliString(((2, "Y"),))
    assert ps.support == (1, 2, 3)
    assert sigma_x(0) == PauliString(((0, "X"),))
