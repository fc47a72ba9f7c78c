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
    A = _kernels._assemble_numpy(cen, nrm, area, diag, block=16)
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


def test_dispatcher_accepts_noncontiguous_input():
    cen, nrm, area = _random_panels(20, seed=5)
    A = _kernels.assemble_influence_matrix(cen[::1], nrm, area, 0.5)
    B = _kernels._assemble_numpy(
        np.ascontiguousarray(cen), nrm, area, 0.5)
    assert np.allclose(A, B, rtol=1e-12, atol=1e-12)
