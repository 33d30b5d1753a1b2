"""Tests for the Kronecker sensing operator and its coherence structure."""

import numpy as np
import pytest

from onebitcs.errors import CapacityError, DegenerateOperatorError
from onebitcs.model import dft_dictionary, zc_training
from onebitcs.operator import (
    build_operator,
    coherence_bands,
    complex_form,
    real_form,
    select_eta,
    unvec,
    vec,
)


def make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16):
    """Matching fft- and dense-mode operators for one training block."""
    tr = zc_training(n, t)
    a_rx = dft_dictionary(m, b_rx)
    a_tx = dft_dictionary(n, b_tx)
    return (
        build_operator(tr.S, a_rx, a_tx, "fft"),
        build_operator(tr.S, a_rx, a_tx, "dense"),
    )


def rand_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestBuildAndShapes:
    def test_dimensions(self):
        op, _ = make_pair(m=4, n=3, t=6, b_rx=8, b_tx=4)
        assert (op.M, op.N, op.T) == (4, 3, 6)
        assert (op.B_RX, op.B_TX, op.B) == (8, 4, 32)
        x = rand_complex(np.random.default_rng(0), 32)
        assert op.apply(x).shape == (24,)
        assert op.apply_adjoint(op.apply(x)).shape == (32,)

    def test_dense_cache_only_in_dense_mode(self):
        op_fft, op_dense = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        assert op_fft.dense_A is None
        assert op_dense.dense_A is not None

    def test_apply_unit_vector_gives_dense_column(self):
        op_fft, op_dense = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        for b in (0, 17, 63):
            e = np.zeros(64, dtype=complex)
            e[b] = 1.0
            col = op_dense.dense_A[:, b]
            assert np.max(np.abs(op_fft.apply(e) - col)) < 1e-12
            assert np.max(np.abs(op_fft.column(b) - col)) < 1e-12

    @pytest.mark.parametrize("idx", [[], [5, 5, 0], [63, 17, 0, 17], list(range(64))])
    def test_columns_stack_column_bitwise(self, idx):
        # The restricted solves are bitwise reproducible only if the block
        # holds the same values in the same (C) layout as a column-by-column
        # fill.
        op, _ = make_pair(m=4, n=3, t=5, b_rx=8, b_tx=8)
        block = op.columns(idx)
        assert block.shape == (op.M * op.T, len(idx)) and block.flags.c_contiguous
        for k, b in enumerate(idx):
            assert np.array_equal(block[:, k], op.column(b))

    @pytest.mark.parametrize("idx", [[64], [0, -1], [3, 70, 2]])
    def test_columns_rejects_out_of_range(self, idx):
        op, _ = make_pair(m=4, n=3, t=5, b_rx=8, b_tx=8)
        with pytest.raises(ValueError):
            op.columns(idx)

    def test_orthogonal_columns_with_square_training(self):
        # N == T ZC training has orthogonal columns too, so the full Gram is
        # a scaled identity: the Gram computation oracle.
        tr = zc_training(4, 4)
        op = build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "dense")
        gram = op.dense_A.conj().T @ op.dense_A
        expected = np.diag(op.column_norms**2)
        assert np.max(np.abs(gram - expected)) < 1e-10

    def test_dense_capacity_limit(self):
        tr = zc_training(1, 2)
        a_rx = dft_dictionary(1, 1 << 13)
        a_tx = dft_dictionary(1, 1 << 13)
        with pytest.raises(CapacityError):
            build_operator(tr.S, a_rx, a_tx, "dense")

    def test_rejects_bad_mode_and_shapes(self):
        tr = zc_training(4, 6)
        with pytest.raises(ValueError):
            build_operator(tr.S, dft_dictionary(4, 4), dft_dictionary(4, 4), "auto")
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

    def test_fft_matches_dense_on_random_vectors(self):
        op_fft, op_dense = make_pair()
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rand_complex(rng, op_fft.B)
            ref = op_dense.apply(x)
            err = np.linalg.norm(op_fft.apply(x) - ref) / np.linalg.norm(ref)
            assert err < 1e-10

    def test_fft_adjoint_matches_dense(self):
        op_fft, op_dense = make_pair()
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = rand_complex(rng, op_fft.M * op_fft.T)
            ref = op_dense.apply_adjoint(c)
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
        for b in (0, 13, 63):
            e = np.zeros(64, dtype=complex)
            e[b] = 1.0
            back = op.apply_adjoint(op.apply(e))
            assert abs(back[b] - op.column_norms[b] ** 2) < 1e-10

    def test_energy_identity(self):
        _, op_dense = make_pair(m=4, n=4, t=6, b_rx=8, b_tx=8)
        dense_energy = np.linalg.norm(op_dense.dense_A) ** 2
        factored_energy = np.sum(op_dense.column_norms**2)
        assert abs(dense_energy - factored_energy) / dense_energy < 1e-10

    @pytest.mark.parametrize("dims", [(4, 4, 5, 8, 8), (8, 4, 6, 16, 12), (6, 6, 6, 6, 6)])
    def test_spectral_norm_is_exact(self, dims):
        op, op_dense = make_pair(*dims)
        want = np.linalg.norm(op_dense.dense_A, 2)
        assert abs(op.spectral_norm_estimate() - want) <= 1e-12 * want
        assert abs(op_dense.spectral_norm_estimate() - want) <= 1e-12 * want

    def test_spectral_norm_off_grid(self):
        rng = np.random.default_rng(3)
        S = zc_training(4, 6).S
        a_rx = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        a_tx = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        op = build_operator(S, a_rx, a_tx, "dense")
        want = np.linalg.norm(op.dense_A, 2)
        assert abs(op.spectral_norm_estimate() - want) <= 1e-12 * want

    def test_rejects_wrong_lengths(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        with pytest.raises(ValueError):
            op.apply(np.zeros(op.B + 1, dtype=complex))
        with pytest.raises(ValueError):
            op.apply_adjoint(np.zeros(op.M * op.T + 1, dtype=complex))


class TestCoherence:
    def test_self_coherence_is_one(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=8, b_tx=8)
        for b in (0, 31, 63):
            assert op.coherence(b, b) == 1.0

    def test_orthogonal_columns_have_zero_coherence(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        assert op.coherence(0, 1) < 1e-12
        assert op.coherence(2, 9) < 1e-12

    def test_duplicated_factor_column_gives_unit_coherence(self):
        tr = zc_training(4, 6)
        a_rx = dft_dictionary(4, 4)[:, [0, 1, 2, 2]]      # duplicate last column
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        assert abs(op.coherence(2, 3) - 1.0) < 1e-12

    def test_matches_dense_gram(self):
        op, op_dense = make_pair(m=4, n=4, t=6, b_rx=8, b_tx=8)
        A = op_dense.dense_A
        norms = np.linalg.norm(A, axis=0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            i, j = rng.integers(64, size=2)
            mu = abs(np.vdot(A[:, i], A[:, j])) / (norms[i] * norms[j])
            assert abs(op.coherence(int(i), int(j)) - mu) < 1e-10

    def test_zero_norm_column_raises(self):
        tr = zc_training(4, 6)
        a_rx = dft_dictionary(4, 4).copy()
        a_rx[:, 1] = 0.0
        op = build_operator(tr.S, a_rx, dft_dictionary(4, 4), "fft")
        with pytest.raises(DegenerateOperatorError):
            op.coherence(0, 1)


def brute_force_bands(op_dense, eta):
    """Band computation oracle straight from the full Gram matrix."""
    A = op_dense.dense_A
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
        op_dense = build_operator(tr.S, a_rx, a_tx, "dense")
        bands = coherence_bands(op, eta)
        expected = brute_force_bands(op_dense, eta)
        for got, want in zip(bands.bands, expected):
            assert np.array_equal(got, want)

    def test_rejects_eta_out_of_range(self):
        op, _ = make_pair(m=4, n=4, t=5, b_rx=4, b_tx=4)
        for eta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                coherence_bands(op, eta)


class TestSelectEta:
    def test_matches_brute_force_on_oversampled_grid(self):
        op, op_dense = make_pair(m=8, n=8, t=10, b_rx=16, b_tx=16)
        A = op_dense.dense_A
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

    def test_vec_unvec_round_trip(self):
        rng = np.random.default_rng(8)
        for rows, cols in ((1, 1), (3, 5), (8, 2)):
            X = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            assert np.array_equal(unvec(vec(X), rows, cols), X)
