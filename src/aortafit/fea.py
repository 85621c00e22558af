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
joins vertices one ring plus one slot apart. The order is chosen first, on
that triangle graph of the free vertices, not on the Gram matrix: mesh
order, or reverse Cuthill-McKee where that band is narrower (closed surfaces
such as a cube sphere); each vertex's three unknowns follow it, so a vertex
half-width w is a band of half-width 3 w + 2. The equations are then
assembled in that order as a block sparse matrix of 3x3 blocks (one block
row per free vertex, one block column per triangle, one index per block).
The Gram matrix is formed a block of vertex rows at a time, as a block
product against only the rows the band lets them meet, and scattered
straight into LAPACK's band storage, then factored by banded Cholesky with
OpenBLAS held at one thread so the factor's bytes do not depend on the
thread count. While the band fills and is factored, only A and the load b
live beside it: the element and triangle frames are dropped after the
assembly and computed again for the collapse, and freed heap goes back to
the system (glibc's malloc_trim) before the band is allocated. Refinement
adds the solution vectors only: A x and Aᵀ y both come from the one block
matrix, with no transposed copy of it. The factor is dropped before the
collapse. Where the Gram matrix is only semidefinite to working precision
(open tubes with free ends keep mechanism modes that the 1e-8 damping barely
lifts; an open mesh with no fixed vertex skips the banded attempt and keeps
mesh order), or where scipy's OpenBLAS thread control is not available,
SuperLU factors it instead, and only that path forms the whole Gram matrix.

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
from scipy.sparse import bsr_array, csr_matrix, identity
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
_GRAM_BLOCK = 1024  # Gram matrix vertex rows formed per block product on the band path
_BLAS_ROOM = 40 << 20  # address space claimed for OpenBLAS's 32 MiB work buffer before its first use, bytes
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


def _triangle(mesh, corner_ids):
    """Each element's triangle on quad corners ``corner_ids``: its vertex ids
    (m, 3), corners (m, corner, xyz), normal of twice its area and that
    normal's length (m, 1).
    """
    tri = mesh.faces[:, corner_ids]
    q = mesh.vertices[tri]
    n_tri = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    n_len = np.linalg.norm(n_tri, axis=1, keepdims=True)
    if np.any(n_len == 0):
        raise ValueError("degenerate element: zero-area triangle")
    return tri, q, n_tri, n_len


def _triangle_frame(t1, n_unit):
    """In-plane frame (t1p, t2p) of triangles with unit normals ``n_unit``: the element axis t1 projected in."""
    t1p = t1 - np.einsum("md,md->m", t1, n_unit)[:, None] * n_unit
    t1p_len = np.linalg.norm(t1p, axis=1, keepdims=True)
    if np.any(t1p_len == 0):
        raise ValueError("degenerate element: frame perpendicular to triangle")
    t1p = t1p / t1p_len
    return t1p, np.cross(n_unit, t1p)


def _edge_blocks(q, n_unit, frame):
    """Force each edge of triangles ``q`` (m, corner, xyz) with unit normals
    ``n_unit`` puts on either endpoint per unit resultant in ``frame``,
    (m, edge, unknown, force comp); edge k runs from corner k to k + 1.
    """
    t1p, t2p = frame
    blocks = np.empty((len(q), 3, 3, 3))
    for k in range(3):
        edge = q[:, (k + 1) % 3] - q[:, k]  # lies in the triangle plane
        length = np.linalg.norm(edge, axis=1)
        if np.any(length == 0):
            raise ValueError("degenerate element edge (zero length)")
        ehat = edge / length[:, None]
        mhat = np.cross(ehat, n_unit)  # in-plane outward normal of the edge
        m1 = np.einsum("md,md->m", mhat, t1p)
        m2 = np.einsum("md,md->m", mhat, t2p)
        # Traction direction per unit resultant: columns N11, N22, N12.
        coeff = np.stack(
            [m1[:, None] * t1p, m2[:, None] * t2p, m2[:, None] * t1p + m1[:, None] * t2p],
            axis=1,
        )  # (m, 3 unknowns, 3 force comps)
        np.multiply(0.5 * length[:, None, None], coeff, out=blocks[:, k])
    return blocks


def _assemble(mesh, t1, vertices, p):
    """Equilibrium rows A of ``vertices``, in that order, and their pressure load b: A @ resultants = b.

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
    area-weighted average of the two triangle tensors
    (``_collapse_resultants``).

    A is a (3 |vertices| x 6 |F|) ``bsr_array`` of 3x3 blocks: block row r
    is vertex ``vertices[r]``'s force components, block column 2 e + s the
    unknowns of element e's triangle s, and each block row lists its
    triangles in ascending order. ``t1`` is the elements' first frame axis.
    Corner c of a triangle is the start of edge c and the end of edge c - 1,
    so one block per corner, the sum of those two edges' blocks, is the
    corner's (vertex, triangle) block. Each entry has exactly these two
    addends, so A does not depend on the order they are summed in, and no
    block has a second corner. Corners of vertices not in ``vertices`` (the
    supported ones) are dropped. ``p`` (N/mm^2 for mm meshes) lumps
    p * area * outward normal / 3 onto each triangle corner, summed one
    corner slot at a time.
    """
    f = mesh.faces
    m = len(f)
    blocks = np.empty((m, 2, 3, 3, 3))  # (element, split, corner, force comp, unknown)
    load = np.zeros_like(mesh.vertices)
    for split, corner_ids in enumerate(_SPLITS):
        tri, q, n_tri, n_len = _triangle(mesh, corner_ids)
        contrib = (p / 3.0) * (0.5 * n_tri)  # area * outward normal
        for k, c in np.ndindex(3, 3):  # a vertex is corner k of at most one ring-layout quad
            load[:, c] += np.bincount(tri[:, k], contrib[:, c], minlength=len(load))
        n_unit = n_tri / n_len
        edges = _edge_blocks(q, n_unit, _triangle_frame(t1, n_unit))
        blocks[:, split] = (edges + edges[:, [2, 0, 1]]).transpose(0, 1, 3, 2)  # corner c: edges c and c - 1
    del q, edges  # the last split's; only A's arrays are needed past here

    # Corners in (element, split, corner) order are in ascending block
    # column; a stable sort by block row keeps each row's columns ascending.
    index = np.int32 if 6 * m < 2**31 else np.int64
    row_of = np.full(len(load), -1, dtype=index)
    row_of[vertices] = np.arange(len(vertices), dtype=index)
    rows = row_of[f[:, np.array(_SPLITS)]].ravel()
    kept = np.flatnonzero(rows >= 0)
    kept = kept[np.argsort(rows[kept], kind="stable")]
    indptr = np.zeros(len(vertices) + 1, dtype=index)
    np.cumsum(np.bincount(rows[kept], minlength=len(vertices)), out=indptr[1:])
    data = blocks.reshape(-1, 3, 3)[kept]
    del blocks, row_of, rows  # before the block columns are formed
    A = bsr_array((data, (kept // 3).astype(index), indptr), shape=(3 * len(vertices), 6 * m))
    return A, load[vertices].ravel()


def _column_rms(A, vertices):
    """RMS column norm of the bsr_array A whose block rows are ``vertices``.

    The squares are summed as one sequence in the order of A's scalar rows
    sorted by vertex, each row's entries by column (compressed sparse rows in
    mesh order), so the damping does not depend on the band order.
    """
    rank = np.empty(len(vertices), dtype=np.intp)
    rank[np.argsort(vertices)] = np.arange(len(vertices))
    key = 3 * np.repeat(rank, np.diff(A.indptr))[:, None] + np.arange(3)  # (block, row in it) -> scalar row
    squares = np.take(A.data.reshape(-1, 3), np.argsort(key.ravel(), kind="stable"), axis=0).ravel()
    squares *= squares
    return np.sqrt(squares.sum() / A.shape[1])


def _collapse_resultants(x, mesh):
    """Area-weighted per-quad average of the two triangle tensors, in the quad frame.

    The frames and areas are those ``_assemble`` used, computed again rather
    than kept alive through the factor.
    """
    t1, t2, _ = _element_frames(mesh)
    m = len(t1)
    xr = x.reshape(m, 2, 3)
    normals = [_triangle(mesh, corner_ids)[2:] for corner_ids in _SPLITS]
    areas = [0.5 * n_len[:, 0] for _, n_len in normals]
    weight_sum = areas[0] + areas[1]
    tensor = np.zeros((m, 3, 3))
    for split, (n_tri, n_len) in enumerate(normals):
        t1p, t2p = _triangle_frame(t1, n_tri / n_len)
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


def _block_rows(A, lo, hi):
    """Block rows lo:hi of the bsr_array A, sharing its data and block indices."""
    start, stop = A.indptr[lo], A.indptr[hi]
    return bsr_array((A.data[start:stop], A.indices[start:stop], A.indptr[lo:hi + 1] - start),
                     shape=(3 * (hi - lo), A.shape[1]))


def _rmatvec(A, y, out):
    """Aᵀ y for the bsr_array A, written into ``out``, with no transposed copy of A.

    y is taken as a one-row block matrix of 1x3 blocks, so the block product
    y A sums each entry over A's rows in their order, as a transposed matrix-
    vector product of A's rows would. The product holds the triangles'
    blocks in the order it first meets them: the one temporary the size of
    ``out``.
    """
    n = A.shape[0] // 3
    row = bsr_array((y.reshape(n, 1, 3), np.arange(n, dtype=A.indices.dtype), np.array([0, n], A.indptr.dtype)),
                    shape=(1, A.shape[0]))
    product = row @ A
    out[:] = 0.0  # triangles with no free corner
    out.reshape(-1, 3)[product.indices] = product.data.reshape(-1, 3)


def _gram_band(A, width):
    """The lower band of A Aᵀ, of half-width 3 width + 2, in LAPACK's band storage.

    A's block rows are vertices in band order, and a vertex meets no other
    more than ``width`` rows away. The Gram matrix is formed ``_GRAM_BLOCK``
    vertex rows at a time, each block against only the rows it can meet:
    the ``width`` before it and its own, with no copy of Aᵀ. Block (I, J) of
    the product lands at flat band position 3 I + 3 J h plus one pattern of
    offsets: all nine entries of a block below the diagonal, the six on or
    below the diagonal of a diagonal block.
    """
    n = A.shape[0] // 3
    h = 3 * width + 2
    ab = np.zeros((h + 1, 3 * n), order="F")
    flat = ab.reshape(-1, order="F")  # entry (row, col) of the lower band is flat[row + h * col]
    i, j = np.indices((3, 3))
    offsets = i + h * j
    lower = i >= j
    for lo in range(0, n, _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, n)
        first = max(0, lo - width)  # the block's rows meet none further back
        block = _block_rows(A, lo, hi) @ _block_rows(A, first, hi).T
        rows = np.repeat(np.arange(lo, hi), np.diff(block.indptr))
        cols = block.indices.astype(np.intp) + first
        base = 3 * rows + 3 * h * cols
        below = cols < rows
        flat[base[below, None, None] + offsets] = block.data[below]
        diagonal = cols == rows
        flat[base[diagonal, None] + offsets[lower]] = block.data[diagonal][:, lower]
        del block, rows, cols, base  # before the next block's product
    return ab


def _map_blas_buffer(half_width):
    """Have OpenBLAS map its work buffer now, before the band takes the room.

    scipy's OpenBLAS maps that buffer (32 MiB) at its first level-3 call
    and, where the address space has no room for it, retries the mapping
    forever instead of failing. So room for it is claimed and released
    first, which raises MemoryError where there is none, and then a factor
    of an identity band of the band's half-width makes that first call.
    """
    warm = np.zeros((half_width + 1, 2 * (half_width + 1)), order="F")
    warm[0] = 1.0
    try:
        np.empty(_BLAS_ROOM, dtype=np.uint8)
    except MemoryError as exc:
        raise MemoryError(f"no room for the BLAS work buffer ({_BLAS_ROOM >> 20} MiB)") from exc
    scipy.linalg.lapack.dpbtrf(warm, lower=1, overwrite_ab=1)


def _band_cholesky(A, width, shift):
    """Solver of (A Aᵀ + shift I) y = r by banded Cholesky; None if not positive definite.

    Rows of A are the free vertices' force components in band order, three
    per vertex, so a vertex half-width ``width`` is a band of half-width
    3 width + 2 on the unknowns. Only the band, A and b are alive during the
    factor.
    """
    trim = _malloc_trim()
    if trim is not None:  # the band lands on the heap the assembly and the order have freed
        trim(0)
    _map_blas_buffer(3 * width + 2)
    ab = _gram_band(A, width)
    ab[0] += shift
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        return None
    return lambda r: cho_solve_banded((cb, True), r, overwrite_b=True, check_finite=False)


def _superlu(A, shift):
    """Solver of (A Aᵀ + shift I) y = r by SuperLU in symmetric mode.

    The only path that forms the whole Gram matrix, through A's scalar rows.
    """
    A = A.tocsr()
    gram = (A @ A.T).tocsc()
    del A
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

    t1 = _element_frames(mesh)[0]
    fixed = _fixed_vertices(mesh, model, report)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fixed] = False

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
    # SuperLU without trying the banded factor, with A's rows in mesh order.
    # Refining y against the true residual recovers the digits a single
    # solve loses to roundoff on near-mechanism modes and removes the
    # Tikhonov bias where the damping barely matters, while keeping x free
    # of null-space components.
    with _one_blas_thread() as pinned:
        banded = pinned and free.any() and (fixed.size > 0 or report.boundary_edge_count == 0)
        order, width = _band_order(mesh.faces, free) if banded else (slice(None), None)
        vertices = np.flatnonzero(free)[order]
        A, b = _assemble(mesh, t1, vertices, model.pressure * KPA_TO_N_PER_MM2)
        damp = _DAMPING * _column_rms(A, vertices)
        del t1, free, order, vertices  # nothing but A and b stays beside the band
        solve = (banded and _band_cholesky(A, width, damp**2)) or _superlu(A, damp**2)

        b_norm = _norm(b)
        limit = max(10.0 * model.solver_tol, 1e-6)
        y = np.zeros(A.shape[0])
        x = np.zeros(A.shape[1])
        residual = 1.0 if b_norm > 0.0 else 0.0
        itn = 0
        while b_norm > 0.0 and residual > model.solver_tol and itn < _REFINE_ROUNDS:
            # In place where it can be: the band is still alive.
            r = A @ x
            y += solve(np.subtract(b, r, out=r))
            del r  # before Aᵀ y takes its room
            _rmatvec(A, y, out=x)
            itn += 1
            r = A @ x
            improved = _norm(np.subtract(r, b, out=r)) / b_norm
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
        resultants=_collapse_resultants(x, mesh),
        thickness=model.thickness,
        pressure=model.pressure,
        residual=residual,
    )
    # A finite sum of |stress| keeps each stress and every regional sum finite.
    if not np.isfinite(np.abs(field.principal).sum()):
        raise SolverError(f"principal stresses overflow at pressure {model.pressure:g} kPa and thickness "
                          f"{model.thickness:g} mm", residual=residual, iterations=itn)
    return field

