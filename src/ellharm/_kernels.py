"""Hot kernel for the dense boundary-element oracle.

The O(N^2) influence-matrix assembly dominates the BEM runtime and memory
traffic.  It is processed in row blocks to avoid N x N x 3 temporaries.
"""

from __future__ import annotations

import numpy as np

NUMBA_AVAILABLE = False   # the perfbench environment block records it

BLOCK_ROWS = 256


def assemble_influence_matrix(cen, nrm, area, diag_val):
    """Influence matrix: A[i, j] = n_i . (c_i - c_j) / |c_i - c_j|^3 * area_j
    for i != j, and diag_val on the diagonal."""
    cen = np.ascontiguousarray(cen, dtype=np.float64)
    nrm = np.ascontiguousarray(nrm, dtype=np.float64)
    area = np.ascontiguousarray(area, dtype=np.float64)
    n = len(cen)
    A = np.empty((n, n), dtype=np.float64)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        d = cen[start:stop, None, :] - cen[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        np.fill_diagonal(r2[:, start:stop], 1.0)
        inv_r3 = r2 ** -1.5
        num = np.einsum("ik,ijk->ij", nrm[start:stop], d)
        A[start:stop] = num * inv_r3 * area[None, :]
    np.fill_diagonal(A, float(diag_val))
    return A
