"""Differential tests for the two-factor operator products.

The oracle, oracles.oracle_apply and oracle_apply_adjoint, is the earlier
factored path: products with each dictionary factor went through truncated,
phase-twisted FFTs when the factor sat on the canonical DFT grid and through
dense matmul otherwise, with column-major (order="F") reshapes around them.
The two-factor products must agree with it to 1e-12 relative on and off the
grid, for unequal dictionary sizes, for N < T, and at desk and full scale.
The restricted products, applied on the sub-grid of the factor bins a column
set touches, must agree to the same tolerance with the gathered factor
columns they replaced (oracles.gathered_image and gathered_adjoint) and
with the dense matrix, for one column, some columns, and sets that touch
every bin.  The Gram product A A^H c, formed from the two
factor Grams, must agree to the same tolerance with an adjoint followed by
an apply and with the dense matrix.  The pair products of the factor
columns must give the weighted Grams C^H diag(W) C and C^T diag(W) C of a
block of the dense matrix, to the same tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.model import dft_dictionary, zc_training
from onebitcs.operator import build_operator

from oracles import (
    OracleDictProduct,
    dense_matrix,
    gathered_adjoint,
    gathered_image,
    off_grid_dictionary,
    oracle_apply,
    oracle_apply_adjoint,
    rand_complex,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
RTOL = 1e-12


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def check_against_oracle(op, rng):
    x = rand_complex(rng, op.B)
    c = rand_complex(rng, op.M * op.T)
    for got, want, length in ((op.apply(x), oracle_apply(op, x), op.M * op.T),
                              (op.apply_adjoint(c), oracle_apply_adjoint(op, c), op.B)):
        assert got.shape == (length,)
        assert got.flags.c_contiguous
        assert relative_error(got, want) <= RTOL


@st.composite
def operators(draw):
    """A small operator on or off the DFT grid, with B_RX, B_TX and T free."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.sampled_from([2, 3, 4, 8]))
    n = draw(st.sampled_from([1, 2, 3, 4]))
    t = n + draw(st.integers(0, 4))
    b_rx = m * draw(st.integers(1, 3)) + draw(st.integers(0, 2))
    b_tx = n * draw(st.integers(1, 3)) + draw(st.integers(0, 2))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["grid", "off-grid", "mixed"]))
    a_rx = off_grid_dictionary(rng, m, b_rx) if kind == "off-grid" else dft_dictionary(m, b_rx)
    a_tx = dft_dictionary(n, b_tx) if kind == "grid" else off_grid_dictionary(rng, n, b_tx)
    return build_operator(zc_training(n, t).S, a_rx, a_tx), rng


@SETTINGS
@given(operators())
def test_two_factor_products_match_fft_oracle(case):
    op, rng = case
    check_against_oracle(op, rng)


def test_oracle_covers_both_of_its_paths():
    assert OracleDictProduct(dft_dictionary(4, 9)).use_fft
    assert not OracleDictProduct(off_grid_dictionary(np.random.default_rng(0), 4, 9)).use_fft


def test_unequal_sizes_and_short_training():
    op = build_operator(zc_training(3, 7).S, dft_dictionary(5, 11), dft_dictionary(3, 4))
    assert (op.B_RX, op.B_TX, op.N, op.T) == (11, 4, 3, 7)
    check_against_oracle(op, np.random.default_rng(1))


@pytest.mark.parametrize("m, t, bins", [(16, 20, 64), (64, 80, 256)])
def test_desk_and_full_scale(m, t, bins):
    # At desk scale the B-sized products are issued as two row halves.
    op = build_operator(zc_training(m, t).S, dft_dictionary(m, bins), dft_dictionary(m, bins))
    check_against_oracle(op, np.random.default_rng(2))


def check_gram_product(op, rng, dense=True):
    c = rand_complex(rng, op.M * op.T)
    got = op.apply_gram(c)
    assert got.shape == (op.M * op.T,)
    assert got.flags.c_contiguous
    assert relative_error(got, op.apply(op.apply_adjoint(c))) <= RTOL
    if dense:
        A = dense_matrix(op)
        assert relative_error(got, A @ (A.conj().T @ c)) <= RTOL
    with pytest.raises(ValueError, match="length"):
        op.apply_gram(c[1:])


@SETTINGS
@given(operators())
def test_gram_product_matches_adjoint_then_apply_and_dense(case):
    op, rng = case
    check_gram_product(op, rng)


@pytest.mark.parametrize("m, t, bins", [(16, 20, 64), (64, 80, 256)])
def test_gram_product_at_desk_and_full_scale(m, t, bins):
    op = build_operator(zc_training(m, t).S, dft_dictionary(m, bins), dft_dictionary(m, bins))
    check_gram_product(op, np.random.default_rng(3), dense=m == 16)


@SETTINGS
@given(operators(), st.integers(1, 12))
def test_pair_products_give_the_weighted_grams(case, size):
    op, rng = case
    idx = rng.choice(op.B, size=min(size, op.B), replace=False)    # in any order
    q = idx.size
    rx, tx = op.pair_products(idx)
    assert rx.shape == (2, op.M, q, q) and tx.shape == (2, op.T, q, q)
    assert rx.flags.c_contiguous and tx.flags.c_contiguous
    cols = dense_matrix(op)[:, idx]
    weights = rng.standard_normal((op.T, op.M))     # on the entries t*M + m
    w = weights.reshape(-1, 1)
    for k, gram in ((0, cols.conj().T @ (w * cols)), (1, cols.T @ (w * cols))):
        got = np.einsum("tjk,tm,mjk->jk", tx[k], weights, rx[k])
        scale = np.abs(cols).T @ (np.abs(w) * np.abs(cols))
        assert np.all(np.abs(got - gram.conj()) <= RTOL * np.max(scale))
    with pytest.raises(ValueError, match="out of range"):
        op.pair_products([0, op.B])


def column_sets(op, rng):
    """Distinct columns of op, in any order: one, some, every bin, and all of them.

    The third touches each transmit and receive bin, through the columns
    (k mod B_RX) + (k mod B_TX) B_RX, which are distinct for k below the
    larger bin count, and a few more drawn at random.
    """
    k = np.arange(max(op.B_RX, op.B_TX))
    cover = k % op.B_RX + (k % op.B_TX) * op.B_RX
    return (rng.integers(0, op.B, size=1),
            rng.choice(op.B, size=rng.integers(1, op.B + 1), replace=False),
            rng.permutation(np.union1d(cover, rng.choice(op.B, size=op.B // 4))),
            rng.permutation(op.B))


@SETTINGS
@given(operators())
def test_restricted_products_match_gathered_oracle_and_dense(case):
    op, rng = case
    A = dense_matrix(op)
    for idx in column_sets(op, rng):
        part = op.restricted(idx)
        z, c = rand_complex(rng, idx.size), rand_complex(rng, op.M * op.T)
        cols = A[:, idx]
        for got, oracle, dense in ((part.image(z), gathered_image(op, idx, z), cols @ z),
                                   (part.adjoint(c), gathered_adjoint(op, idx, c),
                                    cols.conj().T @ c)):
            assert got.shape == dense.shape
            for want in (oracle, dense):
                assert relative_error(got, want) <= RTOL
