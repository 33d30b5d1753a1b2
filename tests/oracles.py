"""References the tests check the library against, kept out of the library.

The library applies A = G kron A_RX only through its two factors and lays
the likelihood out one way, as u.view(float); the dense matrix and the
stacked real form are formed here, where they are checked.  (Not named
``reference``: sweepbench/, which some tests put on sys.path, has a module
of that name.)
"""

import numpy as np

from onebitcs.model import dft_dictionary, draw_channel, synthesize_measurement, zc_training
from onebitcs.objective import ObjectiveContext
from onebitcs.operator import build_operator


def dense_matrix(op):
    """The M*T x B matrix A = G kron A_RX that op applies through its factors."""
    return np.kron(op.G, op.A_RX)


def real_form(x):
    """Stack the real part over the imaginary part."""
    x = np.asarray(x)
    return np.concatenate([x.real, x.imag])


def complex_form(v):
    """Inverse of :func:`real_form`."""
    v = np.asarray(v)
    if v.shape[0] % 2 != 0:
        raise ValueError(f"real-form vector must have even length, got {v.shape[0]}")
    half = v.shape[0] // 2
    return v[:half] + 1j * v[half:]


def make_ctx(seed, rho, m=4, n=4, t=6, b=8, paths=2):
    """The objective of one drawn channel on square DFT dictionaries of b bins."""
    rng = np.random.default_rng(seed)
    tr = zc_training(n, t)
    op = build_operator(tr.S, dft_dictionary(m, b), dft_dictionary(n, b), "fft")
    H = draw_channel(paths, m, n, rng).H
    return ObjectiveContext(op, synthesize_measurement(H, tr.S, rho, rng))
