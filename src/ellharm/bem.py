"""Boundary-element oracle for the two-dielectric solvation problem.

The ellipsoid surface is meshed with flat triangles (a subdivided icosahedron
scaled per-axis), and the induced apparent surface charge density sigma is
solved by centroid collocation of the standard integral equation

    2 pi (eps1 + eps2)/(eps2 - eps1) sigma_i
        - sum_{j != i} [d/dn_i 1/|c_i - c_j|] sigma_j A_j  =  dPhi_coul/dn_i

where Phi_coul is the bare Coulomb field of the interior charges screened by
eps1, and the flat-panel self term vanishes.  The solvation energy is the
interaction of the charges with the induced charge, summed over the panels
against the charges' bare Coulomb potential at the centroids:

    E = (1/2) sum_i sigma_i A_i phi_i,    phi_i = sum_k q_k / |r_k - c_i|.

Everything is deliberately simple (flat panels, centroid rule, dense
blocks inverted directly) -- this module is an independent numerical
cross-check, not a production solver, and its convergence is first order in
panel count.  The one shortcut is exact: the mesh is invariant under the
eight coordinate sign flips, so the collocation matrix commutes with eight
panel permutations and ``solve_bem`` splits it into eight dense blocks, one
per character of that group, from the matrix rows of one panel per orbit.
The blocks depend only on the mesh and the permittivities, so they are built
once, straight into the one stack that is kept on the mesh, a block of rows
at a time, and inverted there in place: every further charge set solved on it
costs a right-hand side and one stacked matrix-vector product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coords import EllipsoidSystem
from .errors import NumericalError, SingularSystem, ValidationError
from .solvation import DielectricModel, KCAL_PER_E2_PER_ANGSTROM
from ._kernels import BLOCK_ROWS, assemble_influence_matrix

__all__ = [
    "TriMesh",
    "BemSolution",
    "ConvergenceStudy",
    "icosphere",
    "mesh_ellipsoid",
    "solve_bem",
    "convergence_study",
    "export_mesh",
]


@dataclass(frozen=True)
class TriMesh:
    """A closed triangle mesh.  ``solve_bem`` keeps its factored operator on
    the mesh, so the arrays must not change after a solve: the meshes that
    ``mesh_ellipsoid`` and ``mesh_sphere`` build are read-only, and the caller
    of a hand-built one keeps its arrays fixed."""

    vertices: np.ndarray    # (V, 3)
    triangles: np.ndarray   # (T, 3) int indices
    centroids: np.ndarray   # (T, 3)
    areas: np.ndarray       # (T,)
    normals: np.ndarray     # (T, 3) outward unit normals
    mirrors: np.ndarray     # (8, T) int: row g maps each panel to its image under s_g
    # solve_bem's factored operator for one diagonal value (see _factored)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def panel_count(self) -> int:
        return len(self.triangles)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


@dataclass(frozen=True)
class BemSolution:
    sigma: np.ndarray
    energy_kcal: float
    panel_count: int
    induced_charge: float  # sum sigma_i A_i


@dataclass(frozen=True)
class ConvergenceStudy:
    panel_counts: list
    energies: list
    deviations: list        # |energy - reference| by level
    fitted_slope: float     # log-log slope of deviation vs panel count
    richardson_limit: float


# the sign flips s_g (bit a of g flips axis a) and the characters
# chi_e(g) = prod_a s_g[a]^(e_a) of the group they form, one row per e
_BITS = (np.arange(8)[:, None] >> np.arange(3)) & 1
_SIGNS = 1 - 2 * _BITS
_CHARACTERS = np.prod(_SIGNS[None, :, :] ** _BITS[:, None, :], axis=2)


def icosphere(refinement: int):
    """Unit-sphere triangulation: icosahedron with ``refinement`` rounds of
    edge-midpoint subdivision and re-projection; 20 * 4^refinement faces."""
    if refinement < 0:
        raise ValueError("refinement must be >= 0")
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    for _ in range(refinement):
        # one new vertex per edge, numbered by the edge's first occurrence in
        # the face-major sequence (i, j), (j, k), (k, i)
        nv = len(verts)
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = edges.min(axis=1) * nv + edges.max(axis=1)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        i, j, k = faces.T
        a, b, c = (nv + rank[inverse]).reshape(-1, 3).T
        ends = edges[first[order]]
        m = verts[ends[:, 0]] + verts[ends[:, 1]]
        m /= np.sqrt(np.vecdot(m, m))[:, None]
        verts = np.concatenate([verts, m])
        faces = np.stack([i, a, c, j, b, a, k, c, b, a, b, c], axis=1).reshape(-1, 3)
    return verts, faces


def _mirrors(verts, faces):
    """(8, T) panel permutations: row g maps each face to the face that the
    sign flip s_g takes it to.  Vertices are matched exactly by sorting, faces
    by their sorted vertex-index triples; an inexact match raises."""
    nv = len(verts)

    def face_keys(f):
        f = np.sort(f, axis=1)
        return (f[:, 0] * nv + f[:, 1]) * nv + f[:, 2]

    order = np.lexsort(verts.T)
    keys = face_keys(faces)
    face_order = np.argsort(keys)
    sorted_keys = keys[face_order]
    out = np.empty((8, len(faces)), dtype=np.int64)
    for g, s in enumerate(_SIGNS):
        image = verts * s + 0.0          # + 0.0 folds -0.0 into 0.0
        image_order = np.lexsort(image.T)
        if not np.array_equal(image[image_order], verts[order]):
            raise NumericalError(f"mesh vertices are not symmetric under {s}")
        vmap = np.empty(nv, dtype=np.int64)
        vmap[image_order] = order
        image_keys = face_keys(vmap[faces])
        pos = np.minimum(np.searchsorted(sorted_keys, image_keys), len(keys) - 1)
        if not np.array_equal(sorted_keys[pos], image_keys):
            raise NumericalError(f"mesh faces are not symmetric under {s}")
        out[g] = face_order[pos]
    return out


def _mesh_from_axes(axes, refinement: int) -> TriMesh:
    verts, faces = icosphere(refinement)
    verts = verts * np.asarray(axes, dtype=float)
    p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    norm = np.linalg.norm(cross, axis=1)
    areas = 0.5 * norm
    normals = cross / norm[:, None]
    centroids = (p0 + p1 + p2) / 3.0
    flip = np.einsum("ij,ij->i", normals, centroids) < 0
    normals[flip] *= -1.0
    arrays = (verts, faces, centroids, areas, normals, _mirrors(verts, faces))
    for arr in arrays:
        arr.flags.writeable = False
    return TriMesh(*arrays)


def mesh_ellipsoid(sys: EllipsoidSystem, refinement: int) -> TriMesh:
    return _mesh_from_axes((sys.a, sys.b, sys.c), refinement)


def mesh_sphere(radius: float, refinement: int) -> TriMesh:
    """Sphere mesh for internal testing (the coordinate machinery rejects
    degenerate semiaxes, but the BEM itself does not care)."""
    return _mesh_from_axes((radius, radius, radius), refinement)


def _factored(mesh: TriMesh, diag: float):
    """The mesh's split collocation operator for the diagonal value ``diag``:
    ``(images, inverses)``, the (8, R) array of each orbit representative's
    mirror images and the read-only (8, R, R) stack of ``solve_bem``'s blocks
    B_chi, inverted.  Built on first use and kept on the mesh for the last
    ``diag`` it was asked for."""
    cached = mesh._factors.get(diag)
    if cached is not None:
        return cached
    m = mesh.mirrors
    reps = np.flatnonzero(m.min(axis=0) == np.arange(mesh.panel_count))
    images = m[:, reps]                                   # (8, R)
    # the blocks are written once, into the stack that is kept: each row
    # block's rows A are gathered into G[g, r, r'] = A[r, m_g[r']], the order
    # that tensordot contracts over, and summed over the characters
    stack = np.empty((8, len(reps), len(reps)))
    for start in range(0, len(reps), BLOCK_ROWS):
        rows = reps[start:start + BLOCK_ROWS]
        A = assemble_influence_matrix(mesh.centroids, mesh.normals, mesh.areas, diag, rows)
        G = A[np.arange(len(rows))[None, :, None], images[:, None, :]]
        stack[:, start:start + len(rows)] = np.tensordot(_CHARACTERS, G, axes=([1], [0]))
    # the (chi, r) where chi vanishes: some g fixing r has chi(g) = -1
    chi, r = np.nonzero(((_CHARACTERS[:, :, None] < 0) & (images == reps)[None]).any(axis=1))
    stack[chi, r, :] = stack[chi, :, r] = 0.0
    stack[chi, r, r] = 1.0
    try:
        for B in stack:
            B[...] = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"a block is singular at {mesh.panel_count} panels") from exc
    stack[chi, r, :] = 0.0
    stack.flags.writeable = False
    mesh._factors.clear()
    mesh._factors[diag] = images, stack
    return images, stack


def solve_bem(mesh: TriMesh, charges, diel: DielectricModel) -> BemSolution:
    """Collocation solve for sigma, split by the mesh's mirror group.

    With m_g = ``mesh.mirrors[g]``, the matrix satisfies
    A[m_g[i], m_g[j]] = A[i, j] for the eight sign flips g, and m_g m_h =
    m_gh.  For each character chi of the group, the projection
    (P_chi x)[i] = (1/8) sum_g chi(g) x[m_g[i]] commutes with A, so
    A sigma_chi = b_chi with sigma_chi = P_chi sigma and b_chi = P_chi b, and
    sigma is the sum of the eight sigma_chi.  A vector in the range of P_chi
    obeys x[m_g[i]] = chi(g) x[i]: it is fixed by its values on one
    representative panel per orbit, and it vanishes on a representative r
    when chi(g) = -1 for some g in r's stabilizer {g : m_g[r] = r}.  Over
    the representatives r, r' whose stabilizers chi is trivial on, write
    sigma_chi[m_g[r']] = chi(g) |stab r'| y[r']; then row r of
    A sigma_chi = b_chi reads

        sum_r' B_chi[r, r'] y[r'] = b_chi[r],
        B_chi[r, r'] = sum_g chi(g) A[r, m_g[r']],
        b_chi[r] = (1/8) sum_g chi(g) b[m_g[r]],

    and adding chi(g) y[r'] to sigma at m_g[r'] for every g puts
    |stab r'| chi(g) y[r'] there.  So only the representatives' rows of A
    are assembled, R x T entries (R = 664 at T = 5120), and eight R x R
    blocks are solved in place of one T x T system.  They are kept as one
    (8, R, R) stack: where chi vanishes on r, row and column r of B_chi are
    the identity's, and row r of its inverse is zeroed, so y[r] = 0 there.

    The blocks depend on the mesh and on the diagonal value
    2 pi (eps1 + eps2)/(eps2 - eps1) alone, not on the charges.  So the
    first solve builds the stack, inverts it and keeps it on the mesh, for
    one diagonal value at a time (~28 MB at 5120 panels); every solve then
    applies it: one right-hand side, one stacked matrix-vector product,
    one scatter and the energy sum.  Results do not depend on what the
    mesh holds.  A singular block raises ``SingularSystem``.

    ``charges`` is read once, before the operator is built: each charge's
    centroid distances give its right-hand-side term and its q/r share of
    the Coulomb potential phi in the energy sum, so any number of charges
    needs O(T) working memory.  A charge with a non-finite coordinate or q
    raises ``ValidationError``.
    """
    e1, e2 = diel.eps1, diel.eps2
    cen, nrm, area = mesh.centroids, mesh.normals, mesh.areas
    rhs = np.zeros(mesh.panel_count)
    phi = np.zeros(mesh.panel_count)
    for ch in charges:
        if not all(map(math.isfinite, (*ch.position, ch.q))):
            raise ValidationError(f"charge at {ch.position} with q={ch.q} is not finite")
        d = cen - np.asarray(ch.position)
        r = np.linalg.norm(d, axis=1)
        # normal derivative of q / (eps1 |r - r_k|) at the centroids
        rhs += -ch.q / e1 * np.einsum("ij,ij->i", nrm, d) / r ** 3
        phi += ch.q / r
    if e1 == e2:
        return BemSolution(sigma=np.zeros(mesh.panel_count), energy_kcal=0.0,
                           panel_count=mesh.panel_count, induced_charge=0.0)
    images, inverses = _factored(mesh, 2.0 * math.pi * (e1 + e2) / (e2 - e1))
    b = _CHARACTERS @ rhs[images] / 8.0
    y = (inverses @ b[:, :, None])[:, :, 0]
    # sum_chi chi(g) y_chi[r'] lands on m_g[r'] for every g
    sigma = np.bincount(images.ravel(), (_CHARACTERS.T @ y).ravel(), mesh.panel_count)
    induced = sigma * area
    energy = 0.5 * float(np.sum(induced * phi))
    return BemSolution(sigma=sigma,
                       energy_kcal=energy * KCAL_PER_E2_PER_ANGSTROM,
                       panel_count=mesh.panel_count,
                       induced_charge=float(np.sum(induced)))


@functools.lru_cache(maxsize=1)
def _richardson_basis(counts: tuple):
    """The (1201, levels, 3) design matrices X of ``_richardson``'s scan of p
    for the panel counts, and the Q factors of their batched QR; both
    read-only, computed once per panel-count tuple."""
    N = np.asarray(counts, dtype=float)
    p = np.linspace(0.3, 1.5, 1201)[:, None]
    X = np.stack([np.ones((len(p), len(N))), N ** -p, N ** (-2 * p)], axis=2)
    Q = np.linalg.qr(X).Q
    X.flags.writeable = Q.flags.writeable = False
    return X, Q


def _richardson(counts, energies):
    """Extrapolated zero-spacing limit of a first-order-ish sequence.

    With >= 4 levels, fit E_inf + C1 N^-p + C2 N^-2p by least squares over a
    scan of p and keep the fit with the least residual (the two-term model
    absorbs the pre-asymptotic curvature of the coarsest levels); with
    exactly 3, use the classical three-point geometric estimate from the last
    three levels.
    """
    N = np.asarray(counts, dtype=float)
    E = np.asarray(energies, dtype=float)
    if len(N) >= 4:
        # residuals from the batched QR of the design matrices, which depend
        # on the panel counts alone; the chosen fit is solved as a single
        # least-squares problem
        X, Q = _richardson_basis(tuple(counts))
        res = E - (Q @ (E @ Q)[:, :, None])[:, :, 0]
        best = np.argmin(np.vecdot(res, res))
        return float(np.linalg.lstsq(X[best], E, rcond=None)[0][0])
    d1 = E[-2] - E[-3]
    d2 = E[-1] - E[-2]
    ratio = N[-1] / N[-2]
    if d2 == 0 or d1 / d2 <= 1.0:
        return float(E[-1])
    p = math.log(d1 / d2) / math.log(ratio)
    return float(E[-1] + d2 / (ratio ** p - 1.0))


def convergence_study(mesh_factory, charges, diel: DielectricModel,
                      refinements, reference: float) -> ConvergenceStudy:
    """Run solve_bem across refinement levels and summarize convergence.

    ``mesh_factory(refinement)`` must return a TriMesh, with panel counts
    that strictly increase along ``refinements``.  The fitted slope is
    the log-log slope of |energy - reference| vs panel count, where
    ``reference`` is an independent energy such as the semi-analytic one.
    ``charges`` may be any iterable; it is read once.  With four or more
    levels the Richardson scan's design matrices and their QR factors are
    kept for the last panel counts seen, so a repeated study skips their
    batched QR (1-2 ms) and gets the same limit bit for bit.
    """
    charges = list(charges)
    refinements = list(refinements)
    if len(refinements) < 3:
        raise ValueError("need at least 3 refinement levels")
    meshes = [mesh_factory(ref) for ref in refinements]
    counts = [mesh.panel_count for mesh in meshes]
    if any(m >= n for m, n in zip(counts, counts[1:])):
        raise ValueError(f"panel counts {counts} must strictly increase")
    energies = [solve_bem(mesh, charges, diel).energy_kcal for mesh in meshes]
    deviations = [abs(e - reference) for e in energies]
    logN = np.log(np.asarray(counts, dtype=float))
    logD = np.log(np.maximum(deviations, 1e-300))
    slope = -float(np.polyfit(logN, logD, 1)[0])
    return ConvergenceStudy(panel_counts=counts, energies=energies,
                            deviations=deviations, fitted_slope=slope,
                            richardson_limit=_richardson(counts, energies))


def export_mesh(mesh: TriMesh, path: str) -> None:
    """Triangle-soup text export: a vertex-count line, one ``x y z`` line per
    vertex, a triangle-count line, then one ``i j k`` index line per triangle
    (0-based)."""
    with open(path, "w") as fh:
        fh.write(f"{len(mesh.vertices)}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        fh.write(f"{len(mesh.triangles)}\n")
        for tri in mesh.triangles:
            fh.write(f"{tri[0]} {tri[1]} {tri[2]}\n")
