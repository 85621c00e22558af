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
One pass over those triangles builds the free vertices' equations and lumps
the pressure onto them, a third of each triangle's load per corner.
The underdetermined system is solved to minimum norm through its Tikhonov-
damped second-kind normal equations with iterative refinement, and the
minimum-norm solution reproduces the thin-wall textbook values (hoop pR/t on
a cylinder, pR/2t on a sphere).

The damped Gram matrix of those normal equations couples only vertices that
share a triangle, so on a structured tube it is a band: a quad's diagonal
joins vertices one ring plus one slot apart. The order is chosen on that
triangle graph of the free vertices, not on the Gram matrix: mesh order, or
reverse Cuthill-McKee where that band is narrower (closed surfaces such as a
cube sphere); each vertex's three unknowns follow it, so a vertex half-width
w is a band of half-width 3 w + 2. The Gram matrix is formed a block of rows
at a time, against only the rows the band lets a block meet, straight into
LAPACK's band storage and factored by banded Cholesky, with OpenBLAS held at
one thread so the factor's bytes do not depend on the thread count. Beside
the band only A is large: freed heap goes back to the system (glibc's
malloc_trim) before the band is allocated, and the factor is dropped before
the collapse. Where the Gram matrix is only semidefinite to working
precision (open tubes with free ends keep mechanism modes that the 1e-8
damping barely lifts; an open mesh with no fixed vertex skips the banded
attempt), or where scipy's OpenBLAS thread control is not available, SuperLU
factors it instead, and only that path forms the whole Gram matrix.

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
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .quadmesh import rings, validate_topology

__all__ = [
    "MembraneModel",
    "StressField",
    "SolverError",
    "solve_membrane_stress",
]

KPA_TO_N_PER_MM2 = 1e-3
N_PER_MM2_TO_KPA = 1e3
_DAMPING = 1e-8  # Tikhonov damping, relative to the equilibrium operator's RMS column norm
_REFINE_ROUNDS = 40  # cap on residual-refinement rounds
_GRAM_BLOCK = 4096  # Gram matrix rows formed per sparse product on the band path
_SPLITS = ((0, 1, 2), (0, 2, 3))  # a quad's two triangles, split along its v0-v2 diagonal


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

    ``resultants`` holds (N11, N22, N12) in N/mm in each element's local frame
    (t1, t2) of ``_element_frames``. Cauchy stresses (kPa) divide by the
    thickness; ``principal`` is (sigma1, sigma2) with sigma1 >= sigma2.
    """

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
        """(m, 2) principal Cauchy stresses, sigma1 >= sigma2, in kPa.

        The closed-form eigenvalues of each element's 2x2 stress tensor.
        """
        s = self.cauchy
        center = 0.5 * (s[:, 0] + s[:, 1])
        radius = np.hypot(0.5 * (s[:, 0] - s[:, 1]), s[:, 2])
        return np.stack([center + radius, center - radius], axis=1)


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


def _edge_blocks(q, n_tri, t1):
    """In-plane frames (t1p, t2p) of triangles ``q`` (m, corner, xyz) with unit
    normals ``n_tri``, and the force each edge puts on either endpoint per unit
    resultant, (m, edge, unknown, force comp); edge k runs from corner k to k + 1.
    """
    t1p = t1 - np.einsum("md,md->m", t1, n_tri)[:, None] * n_tri
    t1p_len = np.linalg.norm(t1p, axis=1, keepdims=True)
    if np.any(t1p_len == 0):
        raise ValueError("degenerate element: frame perpendicular to triangle")
    t1p = t1p / t1p_len
    t2p = np.cross(n_tri, t1p)
    blocks = np.empty((len(q), 3, 3, 3))
    for k in range(3):
        edge = q[:, (k + 1) % 3] - q[:, k]  # lies in the triangle plane
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
        np.multiply(0.5 * length[:, None, None], coeff, out=blocks[:, k])
    return (t1p, t2p), blocks


def _assemble(mesh, t1, free, p):
    """Free vertices' equilibrium rows A (3|free| x 6|F|) and pressure load b: A @ resultants = b.

    Each element is integrated as its two flat triangles (split along the
    v0-v2 diagonal), each carrying its own constant (N11, N22, N12) in the
    element frame projected into the triangle plane.  Every triangle edge
    applies half its length times the resultant traction to each endpoint.
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
    A does not depend on the order they are summed in, and no entry has a
    second corner. ``free`` masks the vertices whose rows are kept, in vertex
    order; the supported vertices' corners are dropped before the sparse
    build. ``p`` (N/mm^2 for mm meshes) lumps p * area * outward normal / 3
    onto each triangle corner, summed one corner slot at a time.

    Returns (A, b, frames, areas): per split s in (0, 1), ``frames[s]`` is the
    (t1, t2) in-plane basis pair and ``areas[s]`` the triangle areas.
    """
    f = mesh.faces
    m = len(f)
    v = mesh.vertices
    data = np.empty((m, 2, 3, 3, 3))  # (element, split, unknown, corner, force comp)
    load = np.zeros_like(v)
    frames = []
    areas = []
    for split, corner_ids in enumerate(_SPLITS):
        tri = f[:, corner_ids]
        q = v[tri]  # (m, 3, 3)
        n_tri = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
        n_len = np.linalg.norm(n_tri, axis=1, keepdims=True)
        if np.any(n_len == 0):
            raise ValueError("degenerate element: zero-area triangle")
        areas.append(0.5 * n_len[:, 0])
        contrib = (p / 3.0) * (0.5 * n_tri)  # area * outward normal
        for k, c in np.ndindex(3, 3):  # a vertex is corner k of at most one ring-layout quad
            load[:, c] += np.bincount(tri[:, k], contrib[:, c], minlength=len(v))
        frame, edges = _edge_blocks(q, n_tri / n_len, t1)
        frames.append(frame)
        data[:, split] = (edges + edges[:, [2, 0, 1]]).transpose(0, 2, 1, 3)  # corner c: edges c and c - 1
    del q, edges  # the last split's; only A's arrays are needed past here

    # A column is one unknown of one triangle, its rows the free corners'
    # force components: A's columns come straight out of the corner blocks,
    # and scipy's conversion to rows leaves each row's columns ascending.
    corners = f[:, np.array(_SPLITS)]
    nrows = 3 * int(free.sum())
    ncols = 6 * m
    keep = free[corners]
    index = np.int32 if max(nrows, ncols, data.size) < 2**31 else np.int64
    row_of = (np.cumsum(free) - 1).astype(index)  # free vertex -> its row block
    # Contiguous copies: a mask through a broadcast view indexes far slower.
    kept = np.broadcast_to(keep[:, :, None, :, None], data.shape).copy()
    rows = np.broadcast_to(3 * row_of[corners][:, :, None, :, None] + np.arange(3, dtype=index), data.shape).copy()
    indptr = np.zeros(ncols + 1, dtype=index)
    np.cumsum(np.repeat(3 * keep.sum(axis=2, dtype=index).ravel(), 3), out=indptr[1:])
    A = csc_matrix((data[kept], rows[kept], indptr), shape=(nrows, ncols))
    del data, rows, kept  # before the conversion copies A
    return A.tocsr(), load[free].ravel(), frames, areas


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


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, which returns freed heap to the system; None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # musl and macOS have none; Windows has no CDLL(None)
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


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


def _band_order(faces, free):
    """Free vertices in band order, and the band's half-width in vertices.

    Two free vertices' rows of the Gram matrix meet where the vertices share a
    triangle, so the band is chosen on that graph (25k vertices for the
    full-size phantom) rather than on the Gram matrix itself: mesh order, or
    reverse Cuthill-McKee where that is strictly narrower.
    """
    row_of = np.cumsum(free) - 1
    tri = faces[:, np.array(_SPLITS)].reshape(-1, 3)
    ends = tri.ravel(), tri[:, [1, 2, 0]].ravel()
    both = free[ends[0]] & free[ends[1]]
    a, b = (row_of[e[both]] for e in ends)
    n = int(free.sum())
    graph = csr_matrix((np.ones(2 * a.size, dtype=np.int8), (np.r_[a, b], np.r_[b, a])), shape=(n, n))
    rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    rank = np.empty_like(rcm)
    rank[rcm] = np.arange(n, dtype=rcm.dtype)
    width = int(np.abs(a - b).max(initial=0))
    rcm_width = int(np.abs(rank[a] - rank[b]).max(initial=0))
    return (rcm, rcm_width) if rcm_width < width else (np.arange(n), width)


def _gram_band(A, perm, half_width):
    """The lower band of A Aᵀ with rows and columns in ``perm`` order, in LAPACK's band storage.

    The Gram matrix is formed ``_GRAM_BLOCK`` rows at a time, each block
    against only the rows the band lets it meet: those ``half_width`` before
    it in band order and its own. Those rows come out in band order, so no
    copy of Aᵀ and no inverse permutation is needed; each block's entries on
    or below the diagonal go straight to their band places.
    """
    n = A.shape[0]
    index = np.int32 if (half_width + 1) * n < 2**31 else np.int64  # holds a flat band position
    ab = np.zeros((half_width + 1, n), order="F")
    flat = ab.reshape(-1, order="F")  # entry (row, col) of the lower band is flat[row + half_width * col]
    for lo in range(0, n, _GRAM_BLOCK):
        first = max(0, lo - half_width)  # the block's rows meet none further back
        block = A[perm[lo:lo + _GRAM_BLOCK]] @ A[perm[first:lo + _GRAM_BLOCK]].T
        rows = np.repeat(np.arange(lo, lo + block.shape[0], dtype=index), np.diff(block.indptr))
        cols = block.indices + index(first)
        lower = rows >= cols
        cols *= half_width
        cols += rows
        flat[cols[lower]] = block.data[lower]
        del block, rows, cols, lower  # before the next block's product
    return ab


def _band_cholesky(A, faces, free, shift):
    """Solver of (A Aᵀ + shift I) y = r by banded Cholesky; None if not positive definite.

    Rows of A are the free vertices' force components, three per vertex, so
    the vertex band order of ``_band_order`` becomes a band of half-width
    3 w + 2 on the unknowns. Only the band and A are alive during the factor.
    """
    if A.shape[0] == 0:  # every vertex is supported
        return None
    order, width = _band_order(faces, free)
    perm = (3 * order[:, None] + np.arange(3)).ravel()
    rank = np.empty_like(perm)
    rank[perm] = np.arange(len(perm), dtype=perm.dtype)
    trim = _malloc_trim()
    if trim is not None:  # the band lands on the heap the assembly and the order have freed
        trim(0)
    ab = _gram_band(A, perm, 3 * width + 2)
    ab[0] += shift
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return lambda r: cho_solve_banded((cb, True), r[perm], check_finite=False)[rank]


def _superlu(A, shift):
    """Solver of (A Aᵀ + shift I) y = r by SuperLU in symmetric mode.

    The only path that forms the whole Gram matrix.
    """
    gram = (A @ A.T).tocsc()
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
    overflow, and ValueError on meshes with no face or that are not
    consistently oriented.
    """
    if mesh.n_faces == 0:
        raise ValueError("membrane solve needs a mesh with at least one face")
    report = validate_topology(mesh)
    if not report.ok:
        raise ValueError("membrane solve needs a manifold, consistently oriented mesh")

    frames = _element_frames(mesh)
    fixed = _fixed_vertices(mesh, model, report)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fixed] = False
    A, b, tri_frames, tri_areas = _assemble(mesh, frames[0], free, model.pressure * KPA_TO_N_PER_MM2)

    # The system is always underdetermined (six unknowns per quad); the
    # minimum-norm solution x = A^T y comes from the damped second-kind normal
    # equations (A A^T + damp^2 I) y = b, factored once.  That Gram matrix is
    # symmetric positive definite (semidefinite without damping) and, on a
    # structured tube in mesh order, a band of half-width 3 (C + 1) + 2 for C
    # vertices per ring, so LAPACK's banded Cholesky factors it with no fill
    # outside the band and no index bookkeeping.  OpenBLAS threads the
    # updates inside that factor, and a different split of its sums gives
    # different bytes, so the factor and its solves run on one BLAS thread.
    # Where the damping is too small to keep the factor positive definite,
    # SuperLU's symmetric-mode LU takes over; raising the damping instead
    # would move the resultants of every mesh.  An open mesh with no fixed
    # vertex (free tube ends) keeps such mechanism modes, so it goes to
    # SuperLU without trying the banded factor.  Refining y against the
    # true residual recovers the digits a single solve loses to roundoff on
    # near-mechanism modes and removes the Tikhonov bias where the damping
    # barely matters, while keeping x free of null-space components.
    col_rms = np.sqrt((A.data**2).sum() / A.shape[1])
    damp = _DAMPING * col_rms
    with _one_blas_thread() as pinned:
        banded = pinned and (fixed.size > 0 or report.boundary_edge_count == 0)
        solve = (banded and _band_cholesky(A, mesh.faces, free, damp**2)) or _superlu(A, damp**2)

        b_norm = _norm(b)
        limit = max(10.0 * model.solver_tol, 1e-6)
        y = np.zeros(A.shape[0])
        x = np.zeros(A.shape[1])
        residual = 1.0 if b_norm > 0.0 else 0.0
        itn = 0
        while b_norm > 0.0 and residual > model.solver_tol and itn < _REFINE_ROUNDS:
            y = y + solve(b - A @ x)
            x = A.T @ y
            itn += 1
            improved = _norm(A @ x - b) / b_norm
            if improved >= 0.9 * residual and itn > 1:
                residual = min(residual, improved)
                break  # stagnated at the attainable floor
            residual = improved
    del solve  # the factor, before the collapse allocates its temporaries
    if not residual <= limit:  # a NaN residual fails too
        raise SolverError(
            f"equilibrium residual {residual:.3g} above limit {limit:.3g} after {itn} refinement rounds",
            residual=residual,
            iterations=itn,
        )

    field = StressField(
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

