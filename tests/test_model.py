"""Tests for channel/training/measurement synthesis."""

import math

import numpy as np
import pytest

from onebitcs.model import (
    dft_dictionary,
    draw_channel,
    quantize,
    steering_vector,
    synthesize_measurement,
    zc_training,
)


class TestSteeringVector:
    def test_broadside_is_constant(self):
        assert np.allclose(steering_vector(0.0, 4), 0.5 * np.ones(4), atol=1e-15)

    def test_endfire_alternates(self):
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(steering_vector(np.pi / 2, 2), expected, atol=1e-12)

    def test_unit_norm_for_random_angles(self):
        rng = np.random.default_rng(0)
        for angle in rng.uniform(-np.pi / 2, np.pi / 2, 25):
            for m in (1, 3, 16):
                assert abs(np.linalg.norm(steering_vector(angle, m)) - 1.0) < 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            steering_vector(np.nan, 4)
        with pytest.raises(ValueError):
            steering_vector(np.inf, 4)
        with pytest.raises(ValueError):
            steering_vector(0.0, 0)


class TestDrawChannel:
    def test_deterministic_given_seed(self):
        a = draw_channel(3, 4, 5, np.random.default_rng(42))
        b = draw_channel(3, 4, 5, np.random.default_rng(42))
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.aoas, b.aoas)
        assert np.array_equal(a.aods, b.aods)

    def test_matrix_matches_path_sum(self):
        ch = draw_channel(4, 8, 8, np.random.default_rng(1))
        H = np.zeros((8, 8), dtype=complex)
        for g, ar, at in zip(ch.gains, ch.aoas, ch.aods):
            H += g * np.outer(steering_vector(ar, 8), steering_vector(at, 8).conj())
        assert np.max(np.abs(H - ch.H)) < 1e-12

    def test_mean_energy_equals_path_count(self):
        # E||H||_F^2 = L because steering vectors are unit norm; Monte-Carlo
        # oracle over 10^4 draws.
        rng = np.random.default_rng(7)
        energies = [np.linalg.norm(draw_channel(4, 4, 4, rng).H) ** 2 for _ in range(10_000)]
        assert abs(np.mean(energies) - 4.0) < 0.1

    def test_single_path_is_rank_one(self):
        ch = draw_channel(1, 6, 5, np.random.default_rng(3))
        assert np.linalg.matrix_rank(ch.H, tol=1e-10) == 1

    def test_rank_bounded_by_path_count(self):
        ch = draw_channel(2, 8, 8, np.random.default_rng(4))
        assert np.linalg.matrix_rank(ch.H, tol=1e-10) <= 2

    def test_analytic_outer_product_case(self):
        # One unit-gain path at broadside: every entry is 1/sqrt(M*N).
        H = np.outer(steering_vector(0.0, 4), steering_vector(0.0, 3).conj())
        assert np.max(np.abs(H - 1.0 / np.sqrt(12))) < 1e-12

    def test_angles_within_range(self):
        ch = draw_channel(64, 2, 2, np.random.default_rng(5))
        assert np.all(np.abs(ch.aoas) <= np.pi / 2)
        assert np.all(np.abs(ch.aods) <= np.pi / 2)

    def test_rejects_bad_path_count(self):
        with pytest.raises(ValueError):
            draw_channel(0, 4, 4, np.random.default_rng(0))


class TestZcTraining:
    def test_unit_modulus_and_column_norms(self):
        tr = zc_training(5, 11)
        assert np.allclose(np.abs(tr.S), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(tr.S, axis=0), np.sqrt(5), atol=1e-12)

    @pytest.mark.parametrize("n,t", [(4, 8), (5, 11), (8, 13), (16, 20)])
    def test_rows_are_orthogonal(self, n, t):
        tr = zc_training(n, t)
        gram = tr.S @ tr.S.conj().T
        assert np.max(np.abs(gram - t * np.eye(n))) < 1e-10

    def test_even_length_base_sequence(self):
        tr = zc_training(1, 4)
        expected = np.exp(-1j * np.pi * tr.root * np.arange(4) ** 2 / 4)
        assert np.allclose(tr.S[0], expected, atol=1e-12)

    def test_odd_length_base_sequence(self):
        tr = zc_training(1, 5)
        n = np.arange(5)
        expected = np.exp(-1j * np.pi * tr.root * n * (n + 1) / 5)
        assert np.allclose(tr.S[0], expected, atol=1e-12)

    def test_rows_are_circular_shifts(self):
        tr = zc_training(3, 7)
        for i, s in enumerate(tr.shifts):
            assert np.allclose(tr.S[i], np.roll(tr.S[0], s - tr.shifts[0]), atol=1e-12)

    def test_default_root_is_coprime(self):
        for t in (4, 9, 12, 80):
            tr = zc_training(2, t)
            assert tr.root > 1 and math.gcd(tr.root, t) == 1

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            zc_training(9, 8)


class TestQuantize:
    def test_basic_signs(self):
        assert quantize(np.array([0.3 - 2j])) == np.array([1 - 1j])

    def test_sign_zero_is_positive(self):
        assert quantize(np.array([-1 + 0j])) == np.array([-1 + 1j])
        assert quantize(np.array([0 + 0j])) == np.array([1 + 1j])

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(0)
        Y = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert np.array_equal(quantize(c * Y), quantize(Y))

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        Y = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        q = quantize(Y)
        assert np.array_equal(quantize(q), q)

    def test_commutes_with_conjugation(self):
        rng = np.random.default_rng(2)
        Y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(quantize(Y.conj()), quantize(Y).conj())

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            quantize(np.array([np.nan + 0j]))


class TestSynthesizeMeasurement:
    def test_zero_snr_ignores_channel(self):
        S = zc_training(3, 6).S
        H1 = np.ones((4, 3), dtype=complex)
        H2 = 5j * np.ones((4, 3), dtype=complex)
        m1 = synthesize_measurement(H1, S, 0.0, np.random.default_rng(9))
        m2 = synthesize_measurement(H2, S, 0.0, np.random.default_rng(9))
        assert np.array_equal(m1.y_hat, m2.y_hat)

    def test_deterministic_given_seed(self):
        S = zc_training(3, 6).S
        H = draw_channel(2, 4, 3, np.random.default_rng(0)).H
        m1 = synthesize_measurement(H, S, 2.0, np.random.default_rng(5))
        m2 = synthesize_measurement(H, S, 2.0, np.random.default_rng(5))
        assert np.array_equal(m1.y_hat, m2.y_hat)

    def test_sign_probability_is_half_without_signal(self):
        # Symmetric noise: Monte-Carlo oracle for P(Re = +1) = 1/2.
        S = zc_training(2, 4).S
        H = np.zeros((2, 2), dtype=complex)
        rng = np.random.default_rng(11)
        total, positives = 0, 0
        for _ in range(10_000 // 8):
            m = synthesize_measurement(H, S, 1.0, rng)
            positives += np.sum(m.y_hat.real > 0)
            total += m.y_hat.size
        assert abs(positives / total - 0.5) < 0.02

    def test_vectorization_is_column_major(self):
        S = zc_training(2, 3).S
        H = draw_channel(1, 2, 2, np.random.default_rng(0)).H
        m = synthesize_measurement(H, S, 4.0, np.random.default_rng(1))
        # The same generator redraws the CN(0, 1) noise block.
        rng = np.random.default_rng(1)
        noise = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2.0)
        Y = 2.0 * (H @ S) + noise
        assert np.array_equal(m.y_hat, quantize(Y).reshape(-1, order="F"))

    def test_entries_are_sign_pairs(self):
        S = zc_training(2, 5).S
        H = draw_channel(1, 3, 2, np.random.default_rng(2)).H
        m = synthesize_measurement(H, S, 1.0, np.random.default_rng(3))
        assert np.all(np.abs(m.y_hat.real) == 1.0)
        assert np.all(np.abs(m.y_hat.imag) == 1.0)
        assert m.rho == 1.0

    def test_rejects_shape_mismatch_and_bad_rho(self):
        S = zc_training(3, 6).S
        with pytest.raises(ValueError):
            synthesize_measurement(np.ones((4, 2)), S, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            synthesize_measurement(np.ones((4, 3)), S, -1.0, np.random.default_rng(0))


class TestDftDictionary:
    def test_critical_sampling_is_orthonormal(self):
        A = dft_dictionary(8, 8)
        assert np.max(np.abs(A.conj().T @ A - np.eye(8))) < 1e-12

    def test_columns_are_unit_norm(self):
        A = dft_dictionary(6, 24)
        assert np.allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)

    def test_columns_are_steering_vectors_on_sin_grid(self):
        m, bins = 5, 10
        A = dft_dictionary(m, bins)
        for b in range(bins):
            angle = np.arcsin(2 * b / bins - 1 + 1 / bins)
            assert np.allclose(A[:, b], steering_vector(angle, m), atol=1e-12)

    def test_adjacent_coherence_constant_at_double_oversampling(self):
        # Dirichlet-kernel magnitude at half-bin offset, computed from the
        # Gram matrix directly.
        A = dft_dictionary(8, 16)
        gram = np.abs(A.conj().T @ A)
        adjacent = np.array([gram[i, i + 1] for i in range(15)])
        assert np.max(np.abs(adjacent - adjacent[0])) < 1e-12
        assert adjacent[0] > 0.5

    def test_rejects_undersized_grid(self):
        with pytest.raises(ValueError):
            dft_dictionary(8, 7)
