"""Hot kernel for the boundary-element oracle.

The influence-matrix assembly dominates the cost of building a mesh's BEM
operator.  It is paid once per mesh and permittivity pair: ``bem.solve_bem``
keeps the factored operator on the mesh, so later charge sets on that mesh
assemble nothing.  The solve needs only the rows of one panel per mirror
orbit, and ``bem`` asks for them a block of ``BLOCK_ROWS`` rows at a time,
writing each block into the operator it keeps.  A block is built from 2-D
(rows, N) arrays, one per coordinate: at 16 rows and 5120 panels each takes
0.66 MB, and a block's temporaries a few MB.  Every entry is computed on its
own, so the entries are the same bit for bit at any block size and for any
subset or order of rows.
"""

from __future__ import annotations

import numpy as np

NUMBA_AVAILABLE = False   # the perfbench environment block records it

BLOCK_ROWS = 16


def assemble_influence_matrix(cen, nrm, area, diag_val, rows):
    """Rows ``rows`` of the influence matrix: with i = rows[k],
    A[k, j] = n_i . (c_i - c_j) / |c_i - c_j|^3 * area_j for j != i, and
    A[k, i] = diag_val."""
    rows = np.asarray(rows, dtype=np.intp)
    x, y, z = np.ascontiguousarray(np.transpose(cen), dtype=np.float64)
    A = np.empty((len(rows), len(cen)), dtype=np.float64)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start:start + BLOCK_ROWS]
        dx = x[block, None] - x
        dy = y[block, None] - y
        dz = z[block, None] - z
        r2 = dx * dx + dy * dy + dz * dz
        r2[np.arange(len(block)), block] = 1.0
        nx, ny, nz = np.transpose(nrm[block])
        num = nx[:, None] * dx + ny[:, None] * dy + nz[:, None] * dz
        A[start:start + len(block)] = num / (r2 * np.sqrt(r2)) * area
    A[np.arange(len(rows)), rows] = float(diag_val)
    return A
