"""Hot kernel for the boundary-element oracle.

The influence-matrix assembly dominates the cost of building a mesh's BEM
operator.  It is paid once per mesh and permittivity pair: ``bem.solve_bem``
keeps the factored operator on the mesh, so later charge sets on that mesh
assemble nothing.  The solve needs only the rows of one panel per mirror
orbit, so the kernel builds the rows it is given, R x N entries, processed
in row blocks to avoid R x N x 3 temporaries.  A block has 64 rows: its
(rows, N, 3) temporaries then take ~18 MB at 5120 panels (~73 MB at 256
rows, more than the 27 MB of rows the call returns), and the entries are
the same bit for bit at any block size.
"""

from __future__ import annotations

import numpy as np

NUMBA_AVAILABLE = False   # the perfbench environment block records it

BLOCK_ROWS = 64


def assemble_influence_matrix(cen, nrm, area, diag_val, rows):
    """Rows ``rows`` of the influence matrix: with i = rows[k],
    A[k, j] = n_i . (c_i - c_j) / |c_i - c_j|^3 * area_j for j != i, and
    A[k, i] = diag_val."""
    cen = np.ascontiguousarray(cen, dtype=np.float64)
    nrm = np.ascontiguousarray(nrm, dtype=np.float64)
    area = np.ascontiguousarray(area, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.intp)
    A = np.empty((len(rows), len(cen)), dtype=np.float64)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        own = np.arange(len(block))
        d = cen[block, None, :] - cen[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", d, d)
        r2[own, block] = 1.0
        inv_r3 = r2 ** -1.5
        num = np.einsum("ik,ijk->ij", nrm[block], d)
        A[start:start + len(block)] = num * inv_r3 * area[None, :]
    A[np.arange(len(rows)), rows] = float(diag_val)
    return A
