"""Tests for the Kronecker sensing operator and its coherence structure."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.errors import DegenerateOperatorError
from onebitcs.model import dft_dictionary, zc_training
from onebitcs.operator import build_operator, coherence_bands, select_eta

from oracles import complex_form, dense_matrix, real_form


def make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16):
    """The operator for one training block and the dense matrix A it applies."""
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b_rx), dft_dictionary(n, b_tx), "fft")
    return op, dense_matrix(op)


def rand_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def column(op, b):
    """Column b = br + bt*B_RX of A, the Kronecker product of its factor columns."""
    return np.kron(op.G[:, b // op.B_RX], op.A_RX[:, b % op.B_RX])


def coherence(op, i, j):
    """|a_i^H a_j| / (||a_i|| ||a_j||), the product of the two factor coherences."""
    mu_rx, mu_g = op._factor_mus()
    return float(min(mu_rx[i % op.B_RX, j % op.B_RX] * mu_g[i // op.B_RX, j // op.B_RX], 1.0))


class TestBuildAndShapes:
    def test_dimensions(self):
        op, _ = make_pair(m=4, n=3, t=6, b_rx=8, b_tx=4)
        assert (op.M, op.N, op.T) == (4, 3, 6)
        assert (op.B_RX, op.B_TX, op.B) == (8, 4, 32)
        x = rand_complex(np.random.default_rng(0), 32)
        assert op.apply(x).shape == (24,)
        assert op.apply_adjoint(op.apply(x)).shape == (32,)

    def test_apply_unit_vector_gives_dense_column(self):
        op_fft, A = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        for b in (0, 17, 63):
            e = np.zeros(64, dtype=complex)
            e[b] = 1.0
            col = A[:, b]
            assert np.max(np.abs(op_fft.apply(e) - col)) < 1e-12
            assert np.max(np.abs(column(op_fft, b) - col)) < 1e-12

    @pytest.mark.parametrize("idx", [[], [5, 5, 0], [63, 17, 0, 17], list(range(64))])
    def test_columns_stack_column_bitwise(self, idx):
        # The block holds the same values as a column-by-column fill, each
        # column contiguous: the restricted solve reads the block as C^T.
        op, _ = make_pair(m=4, n=3, t=5, b_rx=8, b_tx=8)
        block = op.columns(idx)
        assert block.shape == (op.M * op.T, len(idx)) and block.T.flags.c_contiguous
        for k, b in enumerate(idx):
            assert np.array_equal(block[:, k], column(op, b))

    @pytest.mark.parametrize("idx", [[64], [0, -1], [3, 70, 2]])
    def test_columns_rejects_out_of_range(self, idx):
        op, _ = make_pair(m=4, n=3, t=5, b_rx=8, b_tx=8)
        with pytest.raises(ValueError):
            op.columns(idx)

    def test_orthogonal_columns_with_square_training(self):
        # N == T ZC training has orthogonal columns too, so the full Gram is
        # a scaled identity: the Gram computation oracle.
        tr = zc_training(4, 4)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "fft")
        A = dense_matrix(op)
        gram = A.conj().T @ A
        expected = np.diag(np.kron(op.g_norms, op.rx_norms) ** 2)
        assert np.max(np.abs(gram - expected)) < 1e-10

    def test_rejects_bad_mode_and_shapes(self):
        # "fft" is the one mode: the dense matrix is formed only where it is checked.
        tr = zc_training(4, 6)
        for mode in ("auto", "dense"):
            with pytest.raises(ValueError, match="mode"):
                build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), mode)
        with pytest.raises(ValueError):
            build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(3, 4), "fft")

    def test_stored_arrays_are_read_only(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        with pytest.raises(ValueError):
            op.A_RX[0, 0] = 0.0


class TestApplication:
    def test_zero_maps_to_zero(self):
        op, _ = make_pair()
        assert np.all(op.apply(np.zeros(op.B, dtype=complex)) == 0)
        empty = op.restricted(np.zeros(0, dtype=int)).image(np.zeros(0, dtype=complex))
        assert empty.shape == (op.M * op.T,) and np.all(empty == 0)

    def test_fft_matches_dense_on_random_vectors(self):
        op_fft, A = make_pair()
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rand_complex(rng, op_fft.B)
            ref = A @ x
            err = np.linalg.norm(op_fft.apply(x) - ref) / np.linalg.norm(ref)
            assert err < 1e-10

    def test_fft_adjoint_matches_dense(self):
        op_fft, A = make_pair()
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = rand_complex(rng, op_fft.M * op_fft.T)
            ref = A.conj().T @ c
            err = np.linalg.norm(op_fft.apply_adjoint(c) - ref) / np.linalg.norm(ref)
            assert err < 1e-10

    def test_adjoint_identity(self):
        op, _ = make_pair()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rand_complex(rng, op.B)
            c = rand_complex(rng, op.M * op.T)
            lhs = np.vdot(c, op.apply(x))
            rhs = np.vdot(op.apply_adjoint(c), x)
            assert abs(lhs - rhs) / abs(lhs) < 1e-10

    def test_linearity(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        rng = np.random.default_rng(4)
        x, z = rand_complex(rng, 64), rand_complex(rng, 64)
        a, b = 1.3 - 0.2j, -0.7 + 2.1j
        lhs = op.apply(a * x + b * z)
        rhs = a * op.apply(x) + b * op.apply(z)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_gram_diagonal_via_adjoint(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        column_norms = np.kron(op.g_norms, op.rx_norms)
        for b in (0, 13, 63):
            e = np.zeros(64, dtype=complex)
            e[b] = 1.0
            back = op.apply_adjoint(op.apply(e))
            assert abs(back[b] - column_norms[b] ** 2) < 1e-10

    def test_energy_identity(self):
        op, A = make_pair(m=4, n=4, t=6, b_rx=8, b_tx=8)
        dense_energy = np.linalg.norm(A) ** 2
        factored_energy = np.sum(np.kron(op.g_norms, op.rx_norms) ** 2)
        assert abs(dense_energy - factored_energy) / dense_energy < 1e-10

    @pytest.mark.parametrize("dims", [(4, 4, 5, 8, 8), (8, 4, 6, 16, 12), (6, 6, 6, 6, 6)])
    def test_spectral_norm_is_exact(self, dims):
        op, A = make_pair(*dims)
        want = np.linalg.norm(A, 2)
        assert abs(op.spectral_norm_estimate() - want) <= 1e-12 * want

    def test_spectral_norm_off_grid(self):
        rng = np.random.default_rng(3)
        S = zc_training(4, 6).S
        a_rx = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        a_tx = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        op = build_operator(S, a_rx, a_tx, "fft")
        want = np.linalg.norm(dense_matrix(op), 2)
        assert abs(op.spectral_norm_estimate() - want) <= 1e-12 * want

    def test_rejects_wrong_lengths(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        with pytest.raises(ValueError):
            op.apply(np.zeros(op.B + 1, dtype=complex))
        with pytest.raises(ValueError):
            op.apply_adjoint(np.zeros(op.M * op.T + 1, dtype=complex))
        with pytest.raises(ValueError, match="one length"):
            op.restricted([0, 1]).image([1.0])
        with pytest.raises(ValueError, match="out of range"):
            op.restricted([-1]).image([1.0])
        with pytest.raises(ValueError, match="out of range"):
            op.restricted([op.B]).image([1.0])


@functools.cache
def image_operators(scale):
    """An operator and its dense matrix (None at full scale) at desk or full scale.

    At full scale (B = 65536) the dense matrix would take 5.4 GB.
    """
    if scale == "desk":
        return make_pair(m=16, n=16, t=20, b_rx=64, b_tx=64)
    tr = zc_training(64, 80)
    return build_operator(tr.S, dft_dictionary(64, 256), dft_dictionary(64, 256), "fft"), None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.sampled_from(["desk", "full"]), data=st.data())
def test_image_matches_apply_and_dense_operator(scale, data):
    op, dense = image_operators(scale)
    idx = np.array(sorted(data.draw(st.sets(st.integers(0, op.B - 1), max_size=40))), dtype=int)
    values = rand_complex(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), idx.size)
    x = np.zeros(op.B, dtype=complex)
    x[idx] = values
    if dense is not None:
        want = dense @ x
    else:
        # The columns of the dense matrix, each formed as a Kronecker product.
        want = sum((v * column(op, b) for b, v in zip(idx, values)),
                   np.zeros(op.M * op.T, dtype=complex))
    got = op.restricted(idx).image(values)
    assert got.shape == (op.M * op.T,)
    for ref in (want, op.apply(x)):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@functools.cache
def restricted_operators(scale):
    """A small operator, on which 60 columns touch most bins, or image_operators'."""
    if scale == "small":
        return make_pair()[0]
    return image_operators(scale)[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scale=st.sampled_from(["small", "small", "desk", "full"]), data=st.data())
def test_restricted_products_match_full_products(scale, data):
    # Distinct indices in any order: each gets its own entry of the adjoint.
    op = restricted_operators(scale)
    size = data.draw(st.integers(0, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    idx = rng.choice(op.B, size=size, replace=False)
    values, c = rand_complex(rng, idx.size), rand_complex(rng, op.M * op.T)
    part = op.restricted(idx)
    x = np.zeros(op.B, dtype=complex)
    x[idx] = values
    want = op.apply(x)
    got = part.image(values)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    want = op.apply_adjoint(c)[idx]
    got = part.adjoint(c)
    assert got.shape == idx.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_restricted_rejects_what_image_rejects():
    op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
    for idx in ([-1], [op.B], [2, op.B + 3]):
        with pytest.raises(ValueError, match="out of range"):
            op.restricted(idx)
    with pytest.raises(ValueError, match="vector"):
        op.restricted([[0, 1]])
    # The image would keep one value of a repeated column, not their sum.
    for idx in ([3, 3], [0, 5, 9, 5]):
        with pytest.raises(ValueError, match="repeat"):
            op.restricted(idx)
    with pytest.raises(ValueError, match="one length"):
        op.restricted([0, 1]).image([1.0])
    empty = op.restricted([])
    image = empty.image([])
    assert image.shape == (op.M * op.T,) and not image.any()
    assert empty.adjoint(np.ones(op.M * op.T)).shape == (0,)


@pytest.mark.parametrize("method", ["restricted", "columns", "pair_products"])
@pytest.mark.parametrize("idx", [[1.5], [1.0, 2.0], [True, False, True]])
def test_column_indices_must_be_integers(method, idx):
    # A cast would read [1.5] as column 1 and the mask [True, False, True]
    # as columns [1, 0, 1].
    op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
    with pytest.raises(ValueError, match="integers"):
        getattr(op, method)(idx)
    getattr(op, method)([])
    getattr(op, method)(np.array([1, 2], dtype=np.int32))


class TestCoherence:
    def test_self_coherence_is_one(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        for b in (0, 31, 63):
            assert coherence(op, b, b) == 1.0

    def test_orthogonal_columns_have_zero_coherence(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        assert coherence(op, 0, 1) < 1e-12
        assert coherence(op, 2, 9) < 1e-12

    def test_duplicated_factor_column_gives_unit_coherence(self):
        tr = zc_training(4, 6)
        a_rx = dft_dictionary(4, 4)[:, [0, 1, 2, 2]]      # duplicate last column
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        assert abs(coherence(op, 2, 3) - 1.0) < 1e-12

    def test_matches_dense_gram(self):
        op, A = make_pair(m=4, n=4, t=6, b_rx=8, b_tx=8)
        norms = np.linalg.norm(A, axis=0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.integers(64, size=2)
            mu = abs(np.vdot(A[:, i], A[:, j])) / (norms[i] * norms[j])
            assert abs(coherence(op, int(i), int(j)) - mu) < 1e-10

    def test_zero_norm_column_raises(self):
        tr = zc_training(4, 6)
        a_rx = dft_dictionary(4, 4).copy()
        a_rx[:, 1] = 0.0
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        with pytest.raises(DegenerateOperatorError):
            select_eta(op)


def brute_force_bands(A, eta):
    """Band computation oracle straight from the full Gram matrix of A."""
    norms = np.linalg.norm(A, axis=0)
    mu = np.abs(A.conj().T @ A) / np.outer(norms, norms)
    np.fill_diagonal(mu, 1.0)
    return [np.nonzero(mu[i] >= eta)[0] for i in range(A.shape[1])]


class TestCoherenceBands:
    def test_unitary_factors_give_singleton_bands(self):
        tr = zc_training(4, 8)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "fft")
        bands = coherence_bands(op, 0.5)
        assert all(np.array_equal(b, [i]) for i, b in enumerate(bands.bands))

    def test_tiny_eta_gives_full_bands(self):
        # 5 bins over 4 antennas: no column pair is exactly orthogonal, so
        # every coherence clears a vanishing threshold.
        op, _ = make_pair(m=4, n=4, t=5, b_rx=5, b_tx=5)
        bands = coherence_bands(op, 1e-9)
        assert all(b.size == op.B for b in bands.bands)

    def test_membership_is_symmetric_and_reflexive(self):
        op, _ = make_pair(m=4, n=4, t=6, b_rx=12, b_tx=8)
        bands = coherence_bands(op, 0.4)
        sets = [set(b.tolist()) for b in bands.bands]
        for i, band in enumerate(sets):
            assert i in band
            for j in band:
                assert i in sets[j]

    @pytest.mark.parametrize("dims", [(4, 4, 6, 8, 8), (8, 4, 9, 16, 8), (16, 8, 20, 32, 16)])
    @pytest.mark.parametrize("eta", [0.2, 0.6, 0.9])
    def test_factored_bands_match_brute_force(self, dims, eta):
        m, n, t, b_rx, b_tx = dims
        tr = zc_training(n, t)
        a_rx = dft_dictionary(m, b_rx)
        a_tx = dft_dictionary(n, b_tx)
        op = build_operator(tr.S, a_rx, a_tx, "fft")
        bands = coherence_bands(op, eta)
        expected = brute_force_bands(dense_matrix(op), eta)
        for got, want in zip(bands.bands, expected):
            assert np.array_equal(got, want)

    def test_rejects_eta_out_of_range(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        for eta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                coherence_bands(op, eta)


class TestBandsAt:
    def test_repeat_call_returns_the_same_object(self):
        op, _ = make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16)
        for eta in ("auto", 0.4):
            assert op.bands_at(eta) is op.bands_at(eta)

    def test_auto_on_orthonormal_dictionaries_is_none(self):
        tr = zc_training(4, 8)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "fft")
        assert op.bands_at("auto") is None

    def test_auto_uses_the_selected_eta(self):
        op, _ = make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16)
        assert op.bands_at("auto").eta == select_eta(op).eta

    @pytest.mark.parametrize("eta", [0.2, 0.6, 0.9])
    def test_float_matches_coherence_bands(self, eta):
        op, _ = make_pair(m=8, n=4, t=9, b_rx=16, b_tx=8)
        got, want = op.bands_at(eta), coherence_bands(op, eta)
        assert got.eta == want.eta
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


class TestSelectEta:
    def test_matches_brute_force_on_oversampled_grid(self):
        op, A = make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16)
        norms = np.linalg.norm(A, axis=0)
        mu = np.abs(A.conj().T @ A) / np.outer(norms, norms)
        np.fill_diagonal(mu, 0.0)
        expected = float(np.min(np.max(mu, axis=1)))
        selection = select_eta(op)
        assert not selection.clamped
        assert abs(selection.eta - expected) < 1e-10

    def test_selected_eta_keeps_bands_nontrivial(self):
        op, _ = make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16)
        selection = select_eta(op)
        bands = coherence_bands(op, selection.eta)
        assert min(b.size for b in bands.bands) >= 2

    def test_orthogonal_columns_yield_not_applicable(self):
        tr = zc_training(4, 8)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "fft")
        selection = select_eta(op)
        assert selection.eta is None
        assert not selection.clamped

    def test_duplicated_columns_yield_clamped_value(self):
        tr = zc_training(4, 6)
        base = dft_dictionary(4, 4)
        a_rx = np.concatenate([base, base], axis=1)   # every column duplicated
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        selection = select_eta(op)
        assert selection.clamped
        assert 0.0 < selection.eta < 1.0


class TestRealComplexForms:
    def test_example_value(self):
        assert np.array_equal(real_form(np.array([1 + 2j])), [1.0, 2.0])

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rand_complex(rng, 17)
        assert np.array_equal(complex_form(real_form(x)), x)

    def test_isometry(self):
        rng = np.random.default_rng(7)
        x = rand_complex(rng, 33)
        assert abs(np.linalg.norm(real_form(x)) - np.linalg.norm(x)) < 1e-12

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            complex_form(np.ones(5))
