"""The grid oracle's hot kernel: a chunked, vectorized numpy scan."""

from __future__ import annotations

import numpy as np

# complex entries in each chunk temporary (chunk rows * n * M_nu), about
# 8 MB; much larger chunks spend their time faulting in fresh pages
CHUNK_ENTRIES = 500_000


def grid_min_residual(ell, p_re, p_im, v, t):
    """Per fiber-grid-point minimum over the holonomy grid of the balanced
    residual max_t || sum_j e^{i nu.v_j} t^{ell_j} v_j ||.

    ell: (M_A, N) facet distances; p_re/p_im: (M_nu, N) holonomy phase
    factors; v: (N, n) generators; t: (K,) probe values in (0, 1).
    Returns (min_residual[M_A], argmin_nu[M_A]).
    """
    ell = np.asarray(ell, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    ma = ell.shape[0]
    minres = np.empty(ma)
    argnu = np.empty(ma, dtype=np.int64)
    phases = np.asarray(p_re) + 1j * np.asarray(p_im)  # (Mnu, N)
    chunk = max(1, CHUNK_ENTRIES // max(1, phases.shape[0] * v.shape[1]))
    for lo in range(0, ma, chunk):
        hi = min(lo + chunk, ma)
        worst = None
        for tk in np.asarray(t, dtype=np.float64):
            w = tk ** ell[lo:hi]  # (c, N)
            wv = w[:, None, :] * v.T[None, :, :]      # (c, n, N)
            s = wv @ phases.T                         # (c, n, Mnu)
            r2 = (s.real ** 2 + s.imag ** 2).sum(axis=1)  # (c, Mnu)
            worst = r2 if worst is None else np.maximum(worst, r2)
        idx = worst.argmin(axis=1)
        minres[lo:hi] = np.sqrt(worst[np.arange(hi - lo), idx])
        argnu[lo:hi] = idx
    return minres, argnu
