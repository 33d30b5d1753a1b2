"""Differential tests for the CSR coherence bands and the prefix-scan thresholders.

The oracles below are the earlier implementations: bands collected column
by column into separate arrays, band-maximum selection walking the
candidates one at a time in full lexsort order, and hard thresholding by a
full lexsort.  The new code must reproduce them exactly, including on exact
magnitude ties, zero blocks and estimates with shared nonzero values.

The prefix scan itself was replaced too: it copied the nonzero magnitudes
on every call, and band-maximum selection opened with a prefix of budget
indices; it now skips the copy when no score is zero and opens with 4 *
budget.  Both thresholders must select what they selected through the
earlier scan, which is kept below as well.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onebitcs.model import dft_dictionary, steering_vector, zc_training
from onebitcs.operator import CoherenceStructure, build_operator, coherence_bands, select_eta
from onebitcs.solvers import _band_admits, bms_threshold, hard_threshold

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# Multiplying by these leaves |z| bitwise unchanged (it only swaps and
# negates the real and imaginary parts), so they make exact ties.
QUARTER_TURNS = np.array([1.0, 1j, -1.0, -1j])


def oracle_coherence_bands(op, eta):
    """Per-column loop: one sorted member array per column."""
    mu_rx, mu_g = op._factor_mus()
    b_rx = op.B_RX
    bands = []
    for it in range(op.B_TX):
        row_g = mu_g[it]
        jts = np.nonzero(row_g >= eta)[0]
        thresholds = eta / row_g[jts]
        for ir in range(b_rx):
            row_rx = mu_rx[ir]
            members = []
            for jt, thr in zip(jts, thresholds):
                jrs = np.nonzero(row_rx >= thr)[0]
                members.append(jrs + jt * b_rx)
            band = np.concatenate(members) if members else np.array([], dtype=int)
            bands.append(np.sort(band))
    return bands


def oracle_magnitude_order(z):
    return np.lexsort((np.arange(z.shape[0]), -np.abs(z)))


def oracle_hard_threshold(z, budget):
    return np.sort(oracle_magnitude_order(z)[: max(budget, 0)])


def oracle_bms_threshold(z, current_x, budget, bands):
    """Walk candidates by descending |z| until budget are admitted."""
    mags = np.abs(z)
    selected = []
    for i in oracle_magnitude_order(z):
        if len(selected) == budget:
            break
        band = bands[i]
        byproduct = band[(current_x[band] == current_x[i]) & (band != i)]
        if byproduct.size == 0 or mags[i] > np.max(mags[byproduct]):
            selected.append(int(i))
    return np.array(sorted(selected), dtype=int)


def oracle_descending_prefixes(mags, count):
    """The prefix scan that copied the nonzero magnitudes on every call."""
    vals = mags[mags > 0]
    while 0 < count <= vals.size:
        kth = np.partition(vals, vals.size - count)[vals.size - count]
        top = np.flatnonzero(mags >= kth)
        yield top[np.argsort(-mags[top], kind="stable")]
        count = 4 * top.size
    nz = np.flatnonzero(mags)
    yield np.concatenate([nz[np.argsort(-mags[nz], kind="stable")], np.flatnonzero(mags == 0)])


def oracle_prefix_hard_threshold(z, budget):
    return np.sort(next(oracle_descending_prefixes(np.abs(z), budget))[: max(budget, 0)])


def oracle_prefix_bms_threshold(z, current_x, budget, bands):
    """Band-maximum selection over the earlier scan, from a prefix of budget indices."""
    mags = np.abs(z)
    admitted = []
    found = scanned = 0
    for order in oracle_descending_prefixes(mags, budget):
        tail = order[scanned:]
        scanned = order.size
        admitted.append(tail[_band_admits(tail, mags, current_x, bands)])
        found += admitted[-1].size
        if found >= budget:
            break
    return np.sort(np.concatenate(admitted)[:budget])


def off_grid_dictionary(rng, antennas, bins):
    sines = np.sort(rng.uniform(-1.0, 1.0, bins))
    return np.stack([steering_vector(float(np.arcsin(s)), antennas) for s in sines], axis=1)


@st.composite
def operators(draw):
    """A small sensing operator and an eta.

    The dictionaries are on the DFT grid or off it, and the transmit one may
    repeat each column with a phase rotation, which makes off-diagonal
    coherences of 1 give or take rounding.  Eta is the selected one, a
    random one, or one ulp above an attained receive coherence, where a
    transmit coherence rounded above 1 decides membership.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.sampled_from([2, 3, 4, 8]))
    n = draw(st.sampled_from([2, 3, 4]))
    t = n + draw(st.integers(0, 3))
    b_rx = m * draw(st.integers(1, 3)) + draw(st.integers(0, 1))
    b_tx = n * draw(st.integers(1, 3)) + draw(st.integers(0, 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        a_rx, a_tx = off_grid_dictionary(rng, m, b_rx), off_grid_dictionary(rng, n, b_tx)
    else:
        a_rx, a_tx = dft_dictionary(m, b_rx), dft_dictionary(n, b_tx)
    if draw(st.booleans()):
        a_tx = np.concatenate([a_tx, a_tx * np.exp(2j * np.pi * rng.random(b_tx))], axis=1)
    op = build_operator(zc_training(n, t).S, a_rx, a_tx)
    mu_rx, _ = op._factor_mus()
    attained = mu_rx[(mu_rx > 0.01) & (mu_rx < 0.99)]
    kind = draw(st.sampled_from(["selected", "random", "ulp-above"]))
    selected = select_eta(op).eta
    if kind == "selected" and selected is not None:
        return op, selected
    if kind == "ulp-above" and attained.size:
        return op, float(np.nextafter(rng.choice(attained), 1.0))
    return op, draw(st.floats(0.01, 0.99))


@st.composite
def scores(draw, size):
    """Scores with exact magnitude ties and zero blocks."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    levels = draw(st.integers(1, 6))
    mags = rng.choice(rng.uniform(0.1, 2.0, levels), size=size)
    z = mags * QUARTER_TURNS[rng.integers(0, 4, size)]
    if draw(st.booleans()):
        z = np.where(rng.random(size) < 0.5, z, np.conj(z))
    if draw(st.booleans()):
        start = int(rng.integers(0, size))
        z[start:start + int(rng.integers(1, size + 1))] = 0.0
    return z


@st.composite
def estimates(draw, size):
    """Mostly-zero estimates whose nonzeros share a few values."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = np.concatenate([[0.0], rng.standard_normal(2) + 1j * rng.standard_normal(2)])
    weights = np.array([draw(st.floats(0.3, 1.0)), 1.0, 1.0])
    return rng.choice(values, size=size, p=weights / weights.sum())


@st.composite
def threshold_cases(draw):
    op, eta = draw(operators())
    z = draw(scores(op.B))
    x = draw(estimates(op.B))
    budget = draw(st.integers(1, op.B + 1))
    return op, eta, z, x, budget


@st.composite
def random_bands(draw, size):
    """Symmetric bands of random members, each holding its own column, as CSR."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    member = rng.random((size, size)) < draw(st.sampled_from([0.0, 0.05, 0.2, 0.6]))
    member |= member.T
    np.fill_diagonal(member, True)
    indptr = np.concatenate([[0], np.cumsum(member.sum(axis=1))])
    return CoherenceStructure(eta=0.5, indptr=indptr, indices=np.nonzero(member)[1])


def assert_csr_equals(structure, expected):
    assert structure.indptr.shape == (len(expected) + 1,)
    assert structure.indptr[0] == 0 and structure.indptr[-1] == structure.indices.size
    assert len(structure.bands) == len(expected)
    for got, want in zip(structure.bands, expected):
        assert np.array_equal(got, want)


@SETTINGS
@given(problem=operators())
def test_csr_bands_match_loop_oracle(problem):
    op, eta = problem
    assert_csr_equals(coherence_bands(op, eta), oracle_coherence_bands(op, eta))


@SETTINGS
@given(case=threshold_cases())
def test_bms_threshold_matches_loop_oracle(case):
    op, eta, z, x, budget = case
    structure = coherence_bands(op, eta)
    want = oracle_bms_threshold(z, x, budget, oracle_coherence_bands(op, eta))
    assert np.array_equal(bms_threshold(z, x, budget, structure), want)


@SETTINGS
@given(size=st.integers(1, 80), data=st.data())
def test_hard_threshold_matches_lexsort_oracle(size, data):
    z = data.draw(scores(size))
    budget = data.draw(st.integers(-1, size + 1))
    assert np.array_equal(hard_threshold(z, budget), oracle_hard_threshold(z, budget))


@SETTINGS
@given(size=st.integers(1, 80), data=st.data())
def test_thresholders_select_what_the_copying_scan_selected(size, data):
    # Scores with ties and zero blocks, or without zeros (the no-copy path),
    # against estimates with shared values and random bands.
    z = data.draw(scores(size))
    if data.draw(st.booleans()):
        z = np.where(z == 0, 0.05, z)
    x = data.draw(estimates(size))
    bands = data.draw(random_bands(size))
    budget = data.draw(st.integers(1, size + 1))
    assert np.array_equal(bms_threshold(z, x, budget, bands),
                          oracle_prefix_bms_threshold(z, x, budget, bands))
    assert np.array_equal(bms_threshold(z, x, budget, bands),
                          oracle_bms_threshold(z, x, budget, bands.bands))
    budget = data.draw(st.integers(-1, size + 1))
    assert np.array_equal(hard_threshold(z, budget), oracle_prefix_hard_threshold(z, budget))


def test_band_views_cannot_write_the_cached_bands():
    op = build_operator(zc_training(4, 6).S, dft_dictionary(4, 8), dft_dictionary(4, 8))
    structure = coherence_bands(op, select_eta(op).eta)
    band = structure.bands[3]
    assert np.shares_memory(band, structure.indices)
    with pytest.raises(ValueError):
        band[0] = 0


def test_full_scale_csr_bands_match_loop_oracle():
    op = build_operator(zc_training(64, 80).S, dft_dictionary(64, 256), dft_dictionary(64, 256))
    eta = select_eta(op).eta
    assert_csr_equals(coherence_bands(op, eta), oracle_coherence_bands(op, eta))
