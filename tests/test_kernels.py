import numpy as np

from ellharm import _kernels


def _random_panels(n, seed=0):
    rng = np.random.default_rng(seed)
    cen = rng.normal(size=(n, 3))
    nrm = rng.normal(size=(n, 3))
    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
    area = rng.uniform(0.1, 1.0, n)
    return cen, nrm, area


def test_numpy_assembly_matches_direct_loop():
    cen, nrm, area = _random_panels(40)
    diag = 3.7
    A = _kernels.assemble_influence_matrix(cen, nrm, area, diag, np.arange(40))
    B = np.empty((40, 40))
    for i in range(40):
        for j in range(40):
            if i == j:
                B[i, j] = diag
                continue
            d = cen[i] - cen[j]
            r = np.linalg.norm(d)
            B[i, j] = nrm[i] @ d / r ** 3 * area[j]
    assert np.allclose(A, B, rtol=1e-13, atol=1e-13)


def test_multi_block_assembly_matches_dense_reference():
    # a partial last block as well as whole ones, for all rows and for a
    # shuffled subset of them
    n = 2 * _kernels.BLOCK_ROWS + 37
    cen, nrm, area = _random_panels(n, seed=3)
    A = _kernels.assemble_influence_matrix(cen, nrm, area, -1.25, np.arange(n))
    rows = np.random.default_rng(4).permutation(n)[:_kernels.BLOCK_ROWS + 5]
    sub = _kernels.assemble_influence_matrix(cen, nrm, area, -1.25, rows)
    d = cen[:, None, :] - cen[None, :, :]
    r = np.linalg.norm(d, axis=2)
    np.fill_diagonal(r, 1.0)
    B = np.einsum("ik,ijk->ij", nrm, d) / r ** 3 * area[None, :]
    np.fill_diagonal(B, -1.25)
    assert np.allclose(A, B, rtol=1e-12, atol=1e-12)
    assert np.allclose(sub, B[rows], rtol=1e-12, atol=1e-12)


def test_noncontiguous_input_gives_the_contiguous_result():
    cen, nrm, area = _random_panels(20, seed=5)
    strided = np.repeat(cen, 2, axis=1)[:, ::2]   # a view of every other column
    fortran = np.asfortranarray(nrm)
    assert not (strided.flags.c_contiguous or fortran.flags.c_contiguous)
    A = _kernels.assemble_influence_matrix(strided, fortran, area, 0.5, np.arange(20))
    B = _kernels.assemble_influence_matrix(cen, nrm, area, 0.5, np.arange(20))
    assert np.array_equal(A, B)
