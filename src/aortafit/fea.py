"""Membrane wall stress from equilibrium alone (static determinacy).

A thin pressurized wall carries membrane stress resultants N11, N22, N12
(force per unit length) that are fixed by geometry and load, independent of
any material law. Per element the three resultants are unknowns in a local
in-plane frame; per free vertex, three force-balance equations: the element
edge tractions (constant-stress membrane, each edge force split half to its
endpoints) must balance the outward pressure load. Internally each quad's two
flat triangles carry their own resultant tensor (closed quad surfaces are
otherwise overdetermined and the load sits outside the column space by the
discretization error); the reported per-element resultants average the pair.
The underdetermined system is solved to minimum norm through its Tikhonov-
damped second-kind normal equations with iterative refinement, and the
minimum-norm solution reproduces the thin-wall textbook values (hoop pR/t on
a cylinder, pR/2t on a sphere).

The damped Gram matrix of those normal equations couples only vertices that
share a triangle, so on a structured tube it is a band: a quad's diagonal
joins vertices one ring plus one slot apart. It is factored by LAPACK's banded
Cholesky in mesh order, or in reverse Cuthill-McKee order where that band is
narrower (closed surfaces such as a cube sphere), with OpenBLAS held at one
thread so the factor's bytes do not depend on the thread count. Where the
Gram matrix is only semidefinite to working precision (open tubes with free
ends keep mechanism modes that the 1e-8 damping barely lifts), or where
scipy's OpenBLAS thread control is not available, SuperLU factors it
instead.

Units: meshes in mm, pressures in kPa, forces in N. Resultants then come out
in N/mm (= kN/m) and Cauchy stresses (resultant / thickness) are reported in
kPa.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import coo_matrix, identity
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .quadmesh import rings, validate_topology

__all__ = [
    "MembraneModel",
    "StressField",
    "SolverError",
    "pressure_nodal_forces",
    "solve_membrane_stress",
    "principal_stresses",
]

KPA_TO_N_PER_MM2 = 1e-3
N_PER_MM2_TO_KPA = 1e3
_DAMPING = 1e-8  # Tikhonov damping, relative to the equilibrium operator's RMS column norm
_REFINE_ROUNDS = 40  # cap on residual-refinement rounds


class SolverError(RuntimeError):
    """Equilibrium solve did not reach the required residual."""

    def __init__(self, message, residual, iterations):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class MembraneModel:
    """Load, wall and boundary settings.

    ``fixed_rings`` is a tuple of vertex-index arrays whose equilibrium rows
    are dropped (supported boundary). None means the default: first and last
    ring for open structured tubes, nothing for closed surfaces. The solver
    settings are fixed: Tikhonov damping 1e-8 relative to the RMS column norm
    of the equilibrium operator, at most 40 residual-refinement rounds, and
    the target relative residual ``solver_tol`` (a class constant, not a
    field).
    """

    pressure: float = 16.0
    thickness: float = 2.0
    fixed_rings: Optional[tuple] = None
    solver_tol = 1e-8

    def __post_init__(self):
        if self.pressure < 0:
            raise ValueError("pressure must be nonnegative")
        if self.thickness <= 0:
            raise ValueError("thickness must be positive")
        if self.fixed_rings is not None:
            try:
                fixed = tuple(np.asarray(r) for r in self.fixed_rings)
            except TypeError:  # not a list at all
                fixed = None
            if fixed is None or any(r.ndim != 1 or (r.size and r.dtype.kind not in "iu") for r in fixed):
                raise ValueError(f"fixed_rings must be a list of vertex-index lists, got {self.fixed_rings!r}")
            object.__setattr__(self, "fixed_rings", tuple(r.astype(np.int64) for r in fixed))


@dataclass(frozen=True)
class StressField:
    """Per-element membrane state.

    ``frames`` is (t1, t2, normal), each (m, 3); ``resultants`` holds
    (N11, N22, N12) in N/mm in that frame. Cauchy stresses (kPa) divide by the
    thickness; ``principal`` is (sigma1, sigma2) with sigma1 >= sigma2.
    """

    frames: tuple
    resultants: np.ndarray
    thickness: float
    pressure: float
    residual: float

    @property
    def cauchy(self):
        """(m, 3) Cauchy stresses (s11, s22, s12) in kPa."""
        return self.resultants / self.thickness * N_PER_MM2_TO_KPA

    @property
    def principal(self):
        """(m, 2) principal Cauchy stresses, sigma1 >= sigma2, in kPa."""
        s1, s2, _ = principal_stresses(self)
        return np.stack([s1, s2], axis=1)


def principal_stresses(field):
    """Closed-form eigenvalues (sigma1, sigma2, angle) of each 2x2 stress tensor.

    ``angle`` is the rotation (radians) from the element's first frame axis to
    the sigma1 direction.
    """
    s = field.cauchy
    center = 0.5 * (s[:, 0] + s[:, 1])
    radius = np.hypot(0.5 * (s[:, 0] - s[:, 1]), s[:, 2])
    angle = 0.5 * np.arctan2(2.0 * s[:, 2], s[:, 0] - s[:, 1])
    return center + radius, center - radius, angle


def pressure_nodal_forces(mesh, p):
    """Lump pressure load onto vertices: p * area * outward normal / 3 per triangle.

    ``p`` is in force per squared mesh length unit (N/mm^2 for mm meshes and
    newton forces). Quads split along the v0-v2 diagonal; zero-area triangles
    contribute nothing.
    """
    v = mesh.vertices
    f = mesh.faces
    forces = np.zeros_like(v)
    for tri in (f[:, [0, 1, 2]], f[:, [0, 2, 3]]):
        p0, p1, p2 = v[tri[:, 0]], v[tri[:, 1]], v[tri[:, 2]]
        an = 0.5 * np.cross(p1 - p0, p2 - p0)  # area * outward normal
        contrib = (p / 3.0) * an
        for k in range(3):
            np.add.at(forces, tri[:, k], contrib)
    return forces


def _element_frames(mesh):
    """Local orthonormal frames (t1, t2, n) per element."""
    q = mesh.vertices[mesh.faces]
    n = np.cross(q[:, 2] - q[:, 0], q[:, 3] - q[:, 1])
    n_len = np.linalg.norm(n, axis=1, keepdims=True)
    if np.any(n_len == 0):
        raise ValueError("degenerate element: normal undefined")
    n = n / n_len
    e01 = q[:, 1] - q[:, 0]
    t1 = e01 - np.einsum("md,md->m", e01, n)[:, None] * n
    t1_len = np.linalg.norm(t1, axis=1, keepdims=True)
    if np.any(t1_len == 0):
        raise ValueError("degenerate element: first edge collinear with normal")
    t1 = t1 / t1_len
    t2 = np.cross(n, t1)
    return t1, t2, n


def _assemble(mesh, t1):
    """Equilibrium operator A (3|V| x 6|F|): A @ resultants = nodal loads.

    Each element is integrated as its two flat triangles (the same v0-v2 split
    used for the pressure load), each carrying its own constant (N11, N22, N12)
    in the element frame projected into the triangle plane.  Every triangle
    edge applies half its length times the resultant traction to each endpoint.
    Constant stress on a flat facet is exactly self-equilibrated (zero net
    force and torque), so the pressure load stays reachable even for warped
    quads; with a single tensor per quad, closed surfaces are overdetermined
    and the load misses the column space by the discretization error, which
    puts the least-squares residual orders of magnitude above the solver
    contract.  The per-quad resultants reported to callers are the
    area-weighted average of the two triangle tensors.

    ``t1`` is the elements' first frame axis. Corner c of a triangle is the
    start of edge c and the end of edge c - 1, so one 3x3 block per corner,
    the sum of those two edges' blocks, fills the corner's (vertex row,
    triangle column) entries. Each entry has exactly these two addends, so
    A does not depend on the order they are summed in.

    Returns (A, frames, areas): per split s in (0, 1), ``frames[s]`` is the
    (t1, t2) in-plane basis pair and ``areas[s]`` the triangle areas.
    """
    f = mesh.faces
    m = len(f)
    v = mesh.vertices
    splits = ((0, 1, 2), (0, 2, 3))
    blocks = np.empty((m, 2, 3, 3, 3))  # (element, split, corner, unknown, force comp)
    frames = []
    areas = []
    for split, corner_ids in enumerate(splits):
        tri = f[:, corner_ids]
        p = v[tri]  # (m, 3, 3)
        n_tri = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        n_len = np.linalg.norm(n_tri, axis=1, keepdims=True)
        if np.any(n_len == 0):
            raise ValueError("degenerate element: zero-area triangle")
        areas.append(0.5 * n_len[:, 0])
        n_tri = n_tri / n_len
        t1p = t1 - np.einsum("md,md->m", t1, n_tri)[:, None] * n_tri
        t1p_len = np.linalg.norm(t1p, axis=1, keepdims=True)
        if np.any(t1p_len == 0):
            raise ValueError("degenerate element: frame perpendicular to triangle")
        t1p = t1p / t1p_len
        t2p = np.cross(n_tri, t1p)
        frames.append((t1p, t2p))
        edge_blocks = []
        for k in range(3):
            edge = p[:, (k + 1) % 3] - p[:, k]  # lies in the triangle plane
            length = np.linalg.norm(edge, axis=1)
            if np.any(length == 0):
                raise ValueError("degenerate element edge (zero length)")
            ehat = edge / length[:, None]
            mhat = np.cross(ehat, n_tri)  # in-plane outward normal of the edge
            m1 = np.einsum("md,md->m", mhat, t1p)
            m2 = np.einsum("md,md->m", mhat, t2p)
            # Traction direction per unit resultant: columns N11, N22, N12.
            coeff = np.stack(
                [m1[:, None] * t1p, m2[:, None] * t2p, m2[:, None] * t1p + m1[:, None] * t2p],
                axis=1,
            )  # (m, 3 unknowns, 3 force comps)
            edge_blocks.append(0.5 * length[:, None, None] * coeff)
        for c in range(3):
            np.add(edge_blocks[c], edge_blocks[c - 1], out=blocks[:, split, c])

    nrows = 3 * len(mesh.vertices)
    ncols = 6 * m
    index = np.int32 if max(nrows, ncols) < 2**31 else np.int64
    corner_vertex = f[:, np.array(splits)].astype(index)  # (m, 2, 3)
    rows = 3 * corner_vertex[:, :, :, None, None] + np.arange(3, dtype=index)
    cols = (6 * np.arange(m, dtype=index)[:, None, None, None, None]
            + 3 * np.arange(2, dtype=index)[:, None, None, None]
            + np.arange(3, dtype=index)[:, None])
    shape = blocks.shape
    A = coo_matrix(
        (blocks.ravel(), (np.broadcast_to(rows, shape).ravel(), np.broadcast_to(cols, shape).ravel())),
        shape=(nrows, ncols),
    )
    return A.tocsr(), frames, areas


def _collapse_resultants(x, frames, tri_frames, areas):
    """Area-weighted per-quad average of the two triangle tensors, in the quad frame."""
    t1, t2, _ = frames
    m = len(t1)
    xr = x.reshape(m, 2, 3)
    tensor = np.zeros((m, 3, 3))
    weight_sum = areas[0] + areas[1]
    for split in range(2):
        t1p, t2p = tri_frames[split]
        a11, a22, a12 = xr[:, split, 0], xr[:, split, 1], xr[:, split, 2]
        part = (
            a11[:, None, None] * t1p[:, :, None] * t1p[:, None, :]
            + a22[:, None, None] * t2p[:, :, None] * t2p[:, None, :]
            + a12[:, None, None]
            * (t1p[:, :, None] * t2p[:, None, :] + t2p[:, :, None] * t1p[:, None, :])
        )
        tensor += (areas[split] / weight_sum)[:, None, None] * part
    n11 = np.einsum("md,mde,me->m", t1, tensor, t1)
    n22 = np.einsum("md,mde,me->m", t2, tensor, t2)
    n12 = np.einsum("md,mde,me->m", t1, tensor, t2)
    return np.stack([n11, n22, n12], axis=1)


def _fixed_vertices(mesh, model, report):
    if model.fixed_rings is not None:
        fixed = np.unique(np.concatenate(model.fixed_rings)) if model.fixed_rings else np.zeros(0, dtype=np.int64)
        if fixed.size and (fixed[0] < 0 or fixed[-1] >= mesh.n_vertices):
            raise ValueError(f"fixed_rings vertex index out of range 0..{mesh.n_vertices - 1}")
        return fixed
    if report.boundary_edge_count == 0:
        return np.zeros(0, dtype=np.int64)
    if mesh.ring_layout is None:
        raise ValueError("open mesh without ring_layout: fixed_rings must be given explicitly")
    loops = rings(mesh)
    return np.unique(np.concatenate([loops[0], loops[-1]]))


def _norm(v):
    # A numpy sum, not BLAS dot: its order does not depend on the thread count.
    return float(np.sqrt(np.sum(v * v)))


@functools.cache
def _blas_threads():
    """scipy's OpenBLAS thread-count (get, set) pair, or None where it exports none."""
    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
        return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread; yields False where it cannot."""
    control = _blas_threads()
    if control is None:
        yield False
        return
    get, set_ = control
    old = get()
    set_(1)
    try:
        yield True
    finally:
        set_(old)


def _band_cholesky(gram, shift):
    """Solver of (gram + shift I) y = r by banded Cholesky; None if not positive definite.

    ``gram`` is symmetric CSR. Its lower triangle goes straight into LAPACK's
    band storage, in mesh order or, where that band is narrower, in reverse
    Cuthill-McKee order.
    """
    n = gram.shape[0]
    if gram.nnz == 0:
        return None
    rows = np.repeat(np.arange(n, dtype=gram.indices.dtype), np.diff(gram.indptr))
    cols = gram.indices
    perm = reverse_cuthill_mckee(gram, symmetric_mode=True)
    rank = np.empty_like(perm)
    rank[perm] = np.arange(n, dtype=perm.dtype)
    if np.abs(rank[rows] - rank[cols]).max() < np.abs(rows - cols).max():
        rows, cols = rank[rows], rank[cols]
    else:
        perm = rank = np.arange(n, dtype=perm.dtype)
    offset = rows - cols
    lower = offset >= 0
    ab = np.zeros((offset.max() + 1, n), order="F")
    ab[offset[lower], cols[lower]] = gram.data[lower]
    ab[0] += shift
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return lambda r: cho_solve_banded((cb, True), r[perm], check_finite=False)[rank]


def _superlu(gram, shift):
    """Solver of (gram + shift I) y = r by SuperLU in symmetric mode."""
    gram = gram.tocsc()
    if shift > 0.0:
        gram = (gram + shift * identity(gram.shape[0], format="csc")).tocsc()
    try:
        factor = splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"normal-equations factorization failed: {exc}",
            residual=float("inf"),
            iterations=0,
        ) from exc
    return factor.solve


# Overflow from an extreme load or wall shows up as a non-finite residual or
# stress, which raises SolverError below instead of warning.
@np.errstate(over="ignore", invalid="ignore")
def solve_membrane_stress(mesh, model=MembraneModel()):
    """Solve nodal equilibrium for per-element membrane resultants.

    Raises SolverError when the relative equilibrium residual at free vertices
    is not below max(10 * solver_tol, 1e-6) or the principal stresses
    overflow, and ValueError on meshes that are not consistently oriented.
    """
    report = validate_topology(mesh)
    if not report.ok:
        raise ValueError("membrane solve needs a manifold, consistently oriented mesh")

    frames = _element_frames(mesh)
    A, tri_frames, tri_areas = _assemble(mesh, frames[0])
    p_internal = model.pressure * KPA_TO_N_PER_MM2
    b = pressure_nodal_forces(mesh, p_internal).ravel()

    fixed = _fixed_vertices(mesh, model, report)
    row_mask = np.ones(len(mesh.vertices), dtype=bool)
    row_mask[fixed] = False
    row_mask = np.repeat(row_mask, 3)
    A_free = A[row_mask].tocsr()
    b_free = b[row_mask]

    # The system is always underdetermined (six unknowns per quad); the
    # minimum-norm solution x = A^T y comes from the damped second-kind normal
    # equations (A A^T + damp^2 I) y = b, factored once.  That Gram matrix is
    # symmetric positive definite (semidefinite without damping) and, on a
    # structured tube in mesh order, a band of half-width 3 (C + 1) + 2 for C
    # vertices per ring, so LAPACK's banded Cholesky factors it with no fill
    # outside the band and no index bookkeeping.  OpenBLAS threads the
    # updates inside that factor, and a different split of its sums gives
    # different bytes, so the factor and its solves run on one BLAS thread.
    # Where the damping is too small to keep the factor positive definite (free
    # tube ends), SuperLU's symmetric-mode LU takes over; raising the damping
    # instead would move the resultants of every mesh.  Refining y against the
    # true residual recovers the digits a single solve loses to roundoff on
    # near-mechanism modes and removes the Tikhonov bias where the damping
    # barely matters, while keeping x free of null-space components.
    col_rms = np.sqrt((A_free.data**2).sum() / A_free.shape[1])
    damp = _DAMPING * col_rms
    gram = (A_free @ A_free.T).tocsr()
    with _one_blas_thread() as pinned:
        solve = (pinned and _band_cholesky(gram, damp**2)) or _superlu(gram, damp**2)
        del gram

        b_norm = _norm(b_free)
        limit = max(10.0 * model.solver_tol, 1e-6)
        y = np.zeros(A_free.shape[0])
        x = np.zeros(A_free.shape[1])
        residual = 1.0 if b_norm > 0.0 else 0.0
        itn = 0
        while b_norm > 0.0 and residual > model.solver_tol and itn < _REFINE_ROUNDS:
            y = y + solve(b_free - A_free @ x)
            x = A_free.T @ y
            itn += 1
            improved = _norm(A_free @ x - b_free) / b_norm
            if improved >= 0.9 * residual and itn > 1:
                residual = min(residual, improved)
                break  # stagnated at the attainable floor
            residual = improved
    if not residual <= limit:  # a NaN residual fails too
        raise SolverError(
            f"equilibrium residual {residual:.3g} above limit {limit:.3g} after {itn} refinement rounds",
            residual=residual,
            iterations=itn,
        )

    field = StressField(
        frames=frames,
        resultants=_collapse_resultants(x, frames, tri_frames, tri_areas),
        thickness=model.thickness,
        pressure=model.pressure,
        residual=residual,
    )
    # A finite sum of |stress| keeps each stress and every regional sum finite.
    if not np.isfinite(np.abs(field.principal).sum()):
        raise SolverError(f"principal stresses overflow at pressure {model.pressure:g} kPa and thickness "
                          f"{model.thickness:g} mm", residual=residual, iterations=itn)
    return field

