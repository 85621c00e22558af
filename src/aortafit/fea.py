"""Membrane wall stress from equilibrium alone (static determinacy).

A thin pressurized wall carries membrane stress resultants N11, N22, N12
(force per unit length) that are fixed by geometry and load, independent of
any material law. Per element the three resultants are unknowns in a local
in-plane frame; per free vertex, three force-balance equations: the element
edge tractions (constant-stress membrane, each edge force split half to its
endpoints) must balance the outward pressure load. Internally each quad's two
flat triangles, ``quadmesh.TRIANGLES``, carry their own resultant tensor
(closed quad surfaces are otherwise overdetermined and the load sits outside
the column space by the discretization error); the reported per-element
resultants average the pair.
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
half-width w is a band of half-width 3 w + 2. One ring of nested dissection
then cuts it: the w vertices in the middle of that order touch no pair of
vertices on opposite sides, so the free vertices go in the order [left half,
right half reversed, those w], and each half is a band of the same
half-width. The equations are then assembled in that order in corner form:
a constant-stress triangle's corner force is half its stress applied across
the edge opposite the corner, so each (vertex, triangle) 3x3 block is fixed
by two numbers per corner and one frame per triangle. Blocks are expanded a
block of vertex rows at a time, for each half's Gram matrix (a block product
against only the rows the band lets them meet, scattered straight into
LAPACK's band storage) and for A x; Aᵀ y goes straight from the corner
form. A second thread fills the right half's band and factors it by
banded Cholesky (LAPACK's dpbtrf through ctypes, which releases the GIL)
while the main thread does the left; then the separator's Schur complement,
3 w unknowns, is formed and factored dense. A solve is a forward band solve
on each half, two triangular solves on the separator and a back band solve
on each half. OpenBLAS is held at one thread, so no byte depends on its
thread count or on whether the halves overlap. A band whose factor work is
small keeps one half, with no separator and no second thread. Beside the two bands live only the
separator's dense blocks, the corner form, the load b and in refinement the
solution vectors; freed heap goes back to the system (glibc's malloc_trim)
before the bands are allocated, and the factor is dropped before the
collapse. The worker thread has a small stack and shares glibc's main malloc
arena, and OpenBLAS maps its two work buffers before the bands, so the run's
peak address space is what the solve's arrays and buffers need. Where the
Gram matrix is only semidefinite to working precision (open tubes with free
ends keep mechanism modes that the 1e-8 damping barely lifts; an open mesh
with no fixed vertex skips the banded attempt and keeps mesh order), or
where scipy's OpenBLAS does not export its thread control, dpbtrf and its
buffer pool, SuperLU factors it instead, and only that path expands the
whole operator and forms the whole Gram matrix.

Units: meshes in mm, pressures in kPa, forces in N. Resultants then come out
in N/mm (= kN/m) and Cauchy stresses (resultant / thickness) are reported in
kPa.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import functools
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemv, dsyrk, dtbsv, dtrsv
from scipy.linalg.lapack import dpotrf
from scipy.sparse import bsr_array, csr_matrix, identity
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .quadmesh import TRIANGLES, rings, triangle_normals, unit_scale, validate_topology

__all__ = [
    "MembraneModel",
    "StressField",
    "solve_membrane_stress",
]

KPA_TO_N_PER_MM2 = 1e-3
N_PER_MM2_TO_KPA = 1e3
_DAMPING = 1e-8  # Tikhonov damping, relative to the equilibrium operator's RMS column norm
_REFINE_ROUNDS = 40  # cap on residual-refinement rounds
_REFINE_TOL = 1e-8  # refinement stops once the relative residual is at or below this
_RESIDUAL_LIMIT = 1e-6  # a solve whose relative residual stays above this fails
_GRAM_BLOCK = 1024  # vertex rows of A expanded at a time (triangles for Aᵀ y)
_BLAS_ROOM = 40 << 20  # address space claimed per OpenBLAS 32 MiB work buffer before it is mapped, bytes
_SPLIT_WORK = 1e8  # band factor work (unknowns x half-width^2) from which the band is split over two threads
_THREAD_STACK = 256 << 10  # the band worker thread's stack, bytes
_M_ARENA_MAX = -8  # glibc's mallopt parameter for the number of malloc arenas


@dataclass(frozen=True)
class MembraneModel:
    """Load, wall and boundary settings.

    ``fixed_rings`` is a tuple of vertex-index arrays whose equilibrium rows
    are dropped (supported boundary). None means the default: first and last
    ring for open structured tubes, nothing for closed surfaces. The solver
    settings are the module's constants, not fields: Tikhonov damping 1e-8
    relative to the RMS column norm of the equilibrium operator, at most 40
    residual-refinement rounds toward a relative residual of 1e-8, and
    failure above 1e-6.
    """

    pressure: float = 16.0
    thickness: float = 2.0
    fixed_rings: Optional[tuple] = None
    solver_tol = _REFINE_TOL  # not a field; perfbench/workloads.py derives the residual limit from it

    def __post_init__(self):
        if not self.pressure >= 0:  # NaN fails too
            raise ValueError("pressure must be nonnegative")
        if not self.thickness > 0:
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
    _check_elements(n_len, "normal undefined")
    n = n / n_len
    return (*_in_plane_frame(q[:, 1] - q[:, 0], n, "first edge collinear with normal"), n)


def _check_elements(length, what):
    """ValueError naming the first element whose ``length`` (m, 1) is zero."""
    zero = np.flatnonzero(length[:, 0] == 0)
    if zero.size:
        raise ValueError(f"degenerate element {zero[0]}: {what}")


def _dot(a, b):
    """Dot products over the last axis (length 3), summed in component order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _in_plane_frame(t, n_unit, what):
    """Orthonormal frame (t1, t2) in the planes of unit normals ``n_unit``: ``t`` projected in, normalized.

    ``what`` is the ValueError message for a ``t`` along the normal.
    """
    t1 = t - np.einsum("md,md->m", t, n_unit)[:, None] * n_unit
    t1_len = np.linalg.norm(t1, axis=1, keepdims=True)
    _check_elements(t1_len, what)
    t1 = t1 / t1_len
    return t1, np.cross(n_unit, t1)


class _Corners(NamedTuple):
    """The equilibrium operator A in corner form: corner c, in (element,
    split, corner) order, lies on triangle (block column) c // 3, and its
    block (force comp, unknown) is ½ [β t1p | −α t2p | β t2p − α t1p].
    A dropped corner has row -1 and α = β = 0.
    """

    alpha: np.ndarray  # (6 |F|,) d · t1p, d from the corner before to the corner after
    beta: np.ndarray  # (6 |F|,) d · t2p
    rows: np.ndarray  # (6 |F|,) each corner's block row
    order: np.ndarray  # the kept corners by block row, each row's in ascending column
    indptr: np.ndarray  # (block rows + 1,) each block row's span of ``order``
    frames: np.ndarray  # (axis, 2 |F|, xyz) each triangle's t1p and t2p


def _assemble(mesh, t1, vertices, p):
    """Equilibrium rows A of ``vertices``, in that order, and their pressure load b: A @ resultants = b.

    Each element is integrated as its two flat triangles
    (``quadmesh.TRIANGLES``), each carrying its own constant (N11, N22, N12)
    in the element frame projected into the triangle plane.  Constant stress
    on a flat facet is exactly self-equilibrated (zero net force and torque),
    so the pressure load stays reachable even for warped quads; with a single
    tensor per quad, closed surfaces are overdetermined and the load misses
    the column space by the discretization error, which puts the
    least-squares residual orders of magnitude above the solver contract.
    The per-quad resultants reported to callers are the area-weighted
    average of the two triangle tensors (``_collapse_resultants``).

    A is (3 |vertices| x 6 |F|) in corner form (``_Corners``): block row r
    is vertex ``vertices[r]``'s force components, block column 2 e + s the
    unknowns of element e's triangle s. ``t1`` is the elements' first frame
    axis. Each edge puts half its length times the resultant traction on
    either endpoint; a corner's two edges join the corner before to the one
    after (d), so its block is ½ σ applied across d x n, the constant-stress
    triangle's corner force. Corners of ``vertices`` are kept, the others
    (supported) dropped. ``p`` (N/mm^2 for mm meshes) lumps
    p * area * outward normal / 3 onto each triangle corner, summed one
    corner slot at a time.
    """
    m = mesh.n_faces
    quads = mesh.vertices[mesh.faces]
    tri = mesh.faces[:, TRIANGLES]  # (element, split, corner)
    normals = triangle_normals(quads)  # (element, split, xyz)
    alpha, beta = np.empty((2, m, 2, 3))  # (element, split, corner)
    frames = np.empty((2, m, 2, 3))  # (axis, element, split, xyz)
    load = np.zeros_like(mesh.vertices)
    for split in range(2):
        n_tri = normals[:, split]
        n_len = np.linalg.norm(n_tri, axis=1, keepdims=True)
        _check_elements(n_len, "zero-area triangle")  # a triangle with a zero-length edge has zero area
        contrib = (p / 3.0) * (0.5 * n_tri)  # area * outward normal
        for k, c in np.ndindex(3, 3):  # a vertex is corner k of at most one ring-layout quad
            load[:, c] += np.bincount(tri[:, split, k], contrib[:, c], minlength=len(load))
        t1p, t2p = frames[:, :, split] = _in_plane_frame(t1, n_tri / n_len, "frame perpendicular to triangle")
        q = quads[:, TRIANGLES[split]]
        d = q[:, [1, 2, 0]] - q[:, [2, 0, 1]]  # corner c: corner c - 1 to corner c + 1
        alpha[:, split] = _dot(d, t1p[:, None])
        beta[:, split] = _dot(d, t2p[:, None])
    del quads, normals, q, d

    # Corners in (element, split, corner) order are in ascending block
    # column; a stable sort by block row keeps each row's columns ascending.
    index = np.int32 if 6 * m < 2**31 else np.int64
    row_of = np.full(len(load), -1, dtype=index)
    row_of[vertices] = np.arange(len(vertices), dtype=index)
    rows = row_of[tri].ravel()
    dropped = rows < 0
    alpha, beta = alpha.ravel(), beta.ravel()
    alpha[dropped] = beta[dropped] = 0.0
    kept = np.flatnonzero(~dropped)
    order = kept[np.argsort(rows[kept], kind="stable")].astype(index)
    indptr = np.zeros(len(vertices) + 1, dtype=index)
    np.cumsum(np.bincount(rows[kept], minlength=len(vertices)), out=indptr[1:])
    A = _Corners(alpha, beta, rows, order, indptr, frames.reshape(2, 2 * m, 3))
    return A, load[vertices].ravel()


def _blocks(A, lo, hi):
    """Block rows lo:hi of the corner form A, expanded into a bsr_array of 3x3 blocks."""
    start, stop = A.indptr[lo], A.indptr[hi]
    corners = A.order[start:stop]
    columns = corners // 3
    data = np.empty((len(corners), 3, 3))  # (corner, force comp, unknown)
    t1p, t2p = data[:, :, 0], data[:, :, 1]
    t1p[:] = A.frames[0].take(columns, axis=0)
    t2p[:] = A.frames[1].take(columns, axis=0)
    half_a, half_b = 0.5 * A.alpha.take(corners)[:, None], 0.5 * A.beta.take(corners)[:, None]
    np.multiply(t2p, half_b, out=data[:, :, 2])
    data[:, :, 2] -= t1p * half_a
    t1p *= half_b
    t2p *= -half_a
    return bsr_array((data, columns, A.indptr[lo:hi + 1] - start), shape=(3 * (hi - lo), len(A.rows)))


def _collapse_resultants(x, mesh, frames):
    """Area-weighted per-quad average of the two triangle tensors, in the quad frame.

    ``frames`` are the triangles' (t1p, t2p) that ``_assemble`` used. A
    triangle tensor a11 t1p t1p + a22 t2p t2p + a12 (t1p t2p + t2p t1p) is
    projected onto the element axes (t1, t2) through the four cosines
    c_ij = t_i · t_jp.

    The element axes and the triangle normals are computed again here
    rather than kept from the assembly: only A, b and the solve's vectors
    may live beside the bands, and t1 and t2 alone (48 bytes per element,
    1.14 MiB on the README target) would lift the solve's peak past the
    band, the separator, A and the vectors by more than the 1 MiB that
    bounds it (0.2 MiB of it is unused).
    """
    t1, t2 = (t[:, None] for t in _element_frames(mesh)[:2])
    a11, a22, a12 = np.moveaxis(x.reshape(-1, 2, 3), 2, 0)  # (element, split) each
    t1p, t2p = frames.reshape(2, -1, 2, 3)  # (element, split, xyz) each
    c11, c12, c21, c22 = _dot(t1, t1p), _dot(t1, t2p), _dot(t2, t1p), _dot(t2, t2p)
    n11 = a11 * c11 * c11 + a22 * c12 * c12 + 2.0 * a12 * c11 * c12
    n22 = a11 * c21 * c21 + a22 * c22 * c22 + 2.0 * a12 * c21 * c22
    n12 = a11 * c11 * c21 + a22 * c12 * c22 + a12 * (c11 * c22 + c12 * c21)
    areas = np.linalg.norm(triangle_normals(mesh.vertices[mesh.faces]), axis=2)
    weights = areas / (areas[:, :1] + areas[:, 1:])
    return np.stack([(weights * n).sum(axis=1) for n in (n11, n22, n12)], axis=1)


def _fixed_vertices(mesh, model, boundary_edges):
    if model.fixed_rings is not None:
        fixed = np.unique(np.concatenate(model.fixed_rings)) if model.fixed_rings else np.zeros(0, dtype=np.int64)
        if fixed.size and (fixed[0] < 0 or fixed[-1] >= mesh.n_vertices):
            raise ValueError(f"fixed_rings vertex index out of range 0..{mesh.n_vertices - 1}")
        return fixed
    if boundary_edges == 0:
        return np.zeros(0, dtype=np.int64)
    if mesh.ring_layout is None:
        raise ValueError("open mesh without ring_layout: fixed_rings must be given explicitly")
    loops = rings(mesh)
    return np.unique(np.concatenate([loops[0], loops[-1]]))


def _norm(v):
    # A numpy sum, not BLAS dot: its order does not depend on the thread count.
    return float(np.sqrt(np.sum(v * v)))


class _OpenBLAS(NamedTuple):
    """The entries of scipy's OpenBLAS that the band's threads use."""

    get_threads: Callable
    set_threads: Callable
    dpbtrf: Callable  # the band Cholesky factor; through ctypes it runs without the GIL, which scipy's wrapper holds
    alloc: Callable  # a work buffer from OpenBLAS's pool, mapped if it has none free
    free: Callable  # a buffer back to the pool, still mapped


@functools.cache
def _blas_threads():
    """scipy's OpenBLAS thread control, band factor and buffer pool (``_OpenBLAS``); None where it exports any not."""
    try:
        lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
        blas = _OpenBLAS(lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads,
                         lib.scipy_dpbtrf_, lib.blas_memory_alloc, lib.blas_memory_free)
    except (OSError, AttributeError):
        return None
    blas.get_threads.argtypes, blas.get_threads.restype = [], ctypes.c_int
    blas.set_threads.argtypes, blas.set_threads.restype = [ctypes.c_int], None
    integer = ctypes.POINTER(ctypes.c_int)
    # uplo, n, kd, ab, ldab, info and the length of uplo, as gfortran passes them
    blas.dpbtrf.argtypes = [ctypes.c_char_p, integer, integer, ctypes.c_void_p, integer, integer, ctypes.c_size_t]
    blas.dpbtrf.restype = None
    blas.alloc.argtypes, blas.alloc.restype = [ctypes.c_int], ctypes.c_void_p
    blas.free.argtypes, blas.free.restype = [ctypes.c_void_p], None
    return blas


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, which returns freed heap to the system; None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):  # musl and macOS have none; Windows has no CDLL(None)
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


@functools.cache
def _single_arena():
    """Have glibc's malloc serve every thread from its main arena, once per process; nothing where it has no mallopt.

    A thread's first malloc otherwise reserves an arena of its own, 64 MiB
    of address space (128 MiB while it is aligned).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold scipy's OpenBLAS at one thread; yields False where it cannot."""
    blas = _blas_threads()
    if blas is None:
        yield False
        return
    old = blas.get_threads()
    blas.set_threads(1)
    try:
        yield True
    finally:
        blas.set_threads(old)


def _band_order(faces, free):
    """Free vertices in band order, and the band's half-width in vertices.

    Two free vertices' rows of the Gram matrix meet where the vertices share a
    triangle, so the band is chosen on that graph (25k vertices for the
    full-size phantom) rather than on the Gram matrix itself: mesh order, or
    reverse Cuthill-McKee where that is strictly narrower.
    """
    row_of = np.cumsum(free) - 1
    tri = faces[:, TRIANGLES].reshape(-1, 3)
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


def _dissect(order, width):
    """``order`` as [left half, right half reversed, separator], and the halves' vertex counts.

    ``order`` is a band order of vertex half-width ``width``: no two vertices
    more than ``width`` apart in it share a triangle. So the ``width``
    vertices in its middle separate the halves on either side (one ring of
    nested dissection), and each half, the right one read backwards so that
    both end next to the separator, is a band of the same half-width. A band
    whose factor work (unknowns times squared half-width) is under
    ``_SPLIT_WORK``, or shorter than three separators, stays one left half
    with an empty right half and an empty separator.
    """
    n, h = len(order), 3 * width + 2
    if 3 * n * h * h < _SPLIT_WORK or n < 3 * width:
        return order, (n, 0)
    left = (n - width) // 2
    return np.concatenate([order[:left], order[left + width:][::-1], order[left:left + width]]), (left, n - width - left)


def _block_rows(A, lo, hi):
    """Block rows lo:hi of the bsr_array A, sharing its data and block indices."""
    start, stop = A.indptr[lo], A.indptr[hi]
    return bsr_array((A.data[start:stop], A.indices[start:stop], A.indptr[lo:hi + 1] - start),
                     shape=(3 * (hi - lo), A.shape[1]))


def _matvec(A, x, out):
    """A x for the corner form A, written into ``out``, ``_GRAM_BLOCK`` block rows expanded at a time."""
    for lo in range(0, len(A.indptr) - 1, _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, len(A.indptr) - 1)
        out[3 * lo:3 * hi] = _blocks(A, lo, hi) @ x


def _rmatvec(A, y, out):
    """Aᵀ y for the corner form A, written into ``out``, ``_GRAM_BLOCK`` triangles at a time.

    A corner's block transposed takes its vertex's part of y to
    ½ (β u, −α v, β v − α u), with u = y · t1p and v = y · t2p; each
    triangle sums its three corners in slot order (a dropped one adds zero),
    independent of the chunk size and the band order, with no temporary the
    size of ``out``.
    """
    y3, x3 = y.reshape(-1, 3), out.reshape(-1, 3)
    for lo in range(0, len(x3), _GRAM_BLOCK):
        hi = min(lo + _GRAM_BLOCK, len(x3))
        at = y3.take(A.rows[3 * lo:3 * hi], axis=0).reshape(hi - lo, 3, 3)  # (triangle, slot, xyz)
        t1p, t2p = A.frames[:, lo:hi, None]  # (triangle, 1, xyz) each
        u, v = _dot(at, t1p), _dot(at, t2p)
        half_a, half_b = (0.5 * c[3 * lo:3 * hi].reshape(-1, 3) for c in (A.alpha, A.beta))
        for j, part in enumerate((half_b * u, -half_a * v, half_b * v - half_a * u)):
            x3[lo:hi, j] = part[:, 0] + part[:, 1] + part[:, 2]


def _gram_band(A, width, lo, hi):
    """The lower band of block rows lo:hi's Gram matrix among themselves, of half-width 3 width + 2, in LAPACK's band storage.

    A's block rows lo:hi are vertices in band order, and a vertex meets no
    other more than ``width`` rows away. The Gram matrix is formed
    ``_GRAM_BLOCK`` vertex rows at a time, each block against only the rows
    of lo:hi it can meet, the ``width`` before it and its own, expanded
    once. Block (I, J) of the product lands at flat band position
    3 I + 3 J h plus one pattern of offsets: all nine entries of a block
    below the diagonal, the six on or below the diagonal of a diagonal block.
    """
    h = 3 * width + 2
    ab = np.zeros((h + 1, 3 * (hi - lo)), order="F")
    flat = ab.reshape(-1, order="F")  # entry (row, col) of the lower band is flat[row + h * col]
    i, j = np.indices((3, 3))
    offsets = i + h * j
    lower = i >= j
    for start in range(lo, hi, _GRAM_BLOCK):
        stop = min(start + _GRAM_BLOCK, hi)
        first = max(lo, start - width)  # the block's rows meet none further back
        near = _blocks(A, first, stop)
        block = _block_rows(near, start - first, stop - first) @ near.T
        rows = np.repeat(np.arange(start - lo, stop - lo), np.diff(block.indptr))
        cols = block.indices.astype(np.intp) + (first - lo)
        base = 3 * rows + 3 * h * cols
        below = cols < rows
        flat[base[below, None, None] + offsets] = block.data[below]
        diagonal = cols == rows
        flat[base[diagonal, None] + offsets[lower]] = block.data[diagonal][:, lower]
        del near, block, rows, cols, base  # before the next block's product
    return ab


def _map_blas_buffers(count):
    """Have OpenBLAS map ``count`` work buffers, one per thread that factors a half, before the bands take the room.

    scipy's OpenBLAS maps a 32 MiB buffer at a level-3 call that finds none
    of its mapped ones free. Where the address space has no room for it,
    OpenBLAS either retries the mapping forever (0.3.30, as scipy ships it)
    or gives up after ten retries and ends the process with status 1
    (0.3.31, as numpy ships it). So room for them is claimed and released
    first, which raises MemoryError where there is none, and then ``count``
    buffers are taken from the pool at once, which maps those it has not
    mapped yet, and given back.
    """
    try:
        np.empty(count * _BLAS_ROOM, dtype=np.uint8)
    except MemoryError as exc:
        raise MemoryError(f"no room for {count} BLAS work buffers ({_BLAS_ROOM >> 20} MiB each)") from exc
    blas = _blas_threads()
    for buffer in [blas.alloc(0) for _ in range(count)]:
        blas.free(buffer)


def _start(task):
    """Run ``task`` on a new thread; returns the function that joins it and gives ``task``'s result or raises its exception.

    The thread has a 256 KiB stack rather than the default 8 MiB, and glibc
    serves its mallocs from the main arena, so it costs about 1 MiB of
    address space and a run's peak stays what its arrays need. A thread
    that cannot start, for want of room for its stack, raises MemoryError.
    """
    _single_arena()
    future = concurrent.futures.Future()

    def run():
        try:
            future.set_result(task())
        except BaseException as exc:  # raised again in the thread that joins
            future.set_exception(exc)

    thread = threading.Thread(target=run, name="aortafit-band")
    old = threading.stack_size(_THREAD_STACK)
    try:
        thread.start()
    except RuntimeError as exc:  # can't start new thread
        raise MemoryError(f"cannot start the band's second thread: {exc}") from exc
    finally:
        threading.stack_size(old)

    def join():
        thread.join()
        return future.result()

    return join


def _half_factor(A, width, lo, hi, shift):
    """Banded Cholesky factor of (G + shift I), G the Gram matrix among block rows lo:hi of A; None if not positive definite.

    The factor is in LAPACK's lower band storage, the band's own array.
    """
    ab = _gram_band(A, width, lo, hi)
    ab[0] += shift
    n, h = ab.shape[1], len(ab) - 1
    info = ctypes.c_int()
    _blas_threads().dpbtrf(b"L", ctypes.byref(ctypes.c_int(n)), ctypes.byref(ctypes.c_int(h)), ab.ctypes.data,
                           ctypes.byref(ctypes.c_int(h + 1)), ctypes.byref(info), 1)
    return ab if info.value == 0 else None


def _coupling(A, rows, band, width, lo, hi):
    """L⁻¹ Bᵀ on the last rows of a half, the only ones where it is not zero.

    ``band`` is the factor L of the half on block rows lo:hi, ``rows`` the
    separator's rows of A, and B their Gram block against the half. The
    separator meets only the half's last ``width`` vertices, so Bᵀ is zero
    above their k unknowns, and so is L⁻¹ Bᵀ; on them it is T⁻¹ Bᵀ for T,
    L's dense lower corner there, read in place from the band storage.
    """
    coupling = (rows @ _blocks(A, max(lo, hi - width), hi).T).toarray().T  # (k, separator unknowns)
    k, h = len(coupling), len(band) - 1
    flat = band.reshape(-1, order="F")  # L[i, j] = flat[i + h j] for i >= j
    corner = as_strided(flat[(band.shape[1] - k) * (h + 1):], shape=(k, k), strides=(8, 8 * h))
    return solve_triangular(corner, coupling, lower=True, overwrite_b=True, check_finite=False)


class _Factor(NamedTuple):
    """A Aᵀ + shift I = L Lᵀ with the unknowns in the order of ``_dissect``:

        L = | L_left     0        0   |
            |   0      L_right    0   |
            | W_leftᵀ  W_rightᵀ  L_sep |

    with W = L⁻¹ Bᵀ for each half's Gram block B against the separator.
    """

    left: np.ndarray  # (h + 1, left unknowns) L_left in LAPACK's lower band storage
    right: np.ndarray  # (h + 1, right unknowns) L_right, the same
    couple_left: np.ndarray  # (k, separator unknowns) W_left's last k rows, the rest being zero
    couple_right: np.ndarray  # (k, separator unknowns) W_right's
    separator: np.ndarray  # lower Cholesky factor L_sep of the separator's Schur complement


def _band_factor(A, width, halves, shift):
    """(A Aᵀ + shift I) factored in the dissected order; None if not positive definite.

    Rows of A are the free vertices' force components, three per vertex, in
    the order of ``_dissect``, whose ``halves`` give the two halves' vertex
    counts; a vertex half-width ``width`` is a band of half-width 3 width + 2
    on each half's unknowns. A second thread fills and factors the right
    half, where there is one, while this one does the left; the separator's
    Schur complement (3 width unknowns) is formed and factored after both.
    OpenBLAS runs on one thread (``_one_blas_thread``), so neither its bytes
    nor anything else depends on whether the halves overlap. Only the two
    bands, the separator's dense blocks, A and b live during the factor.
    """
    n_left, n_right = halves
    trim = _malloc_trim()
    if trim is not None:  # the bands land on the heap the assembly and the order have freed
        trim(0)
    _map_blas_buffers(1 + (n_right > 0))
    right_half = functools.partial(_half_factor, A, width, n_left, n_left + n_right, shift)
    join = _start(right_half) if n_right else right_half  # an empty right half needs no thread
    try:
        left = _half_factor(A, width, 0, n_left, shift)
    finally:
        right = join()
    if left is None or right is None:
        return None
    if not n_right:  # one half, and no separator
        empty = np.zeros((0, 0))
        return _Factor(left, right, empty, empty, empty)
    rows = _blocks(A, n_left + n_right, len(A.indptr) - 1)
    couple_left = _coupling(A, rows, left, width, 0, n_left)
    couple_right = _coupling(A, rows, right, width, n_left, n_left + n_right)
    schur = (rows @ rows.T).toarray(order="F")
    schur[np.diag_indices_from(schur)] += shift
    for couple in (couple_left, couple_right):
        schur = dsyrk(-1.0, couple, beta=1.0, c=schur, trans=1, lower=1, overwrite_c=1)
    separator, info = dpotrf(schur, lower=1, clean=1, overwrite_a=1)
    return _Factor(left, right, couple_left, couple_right, separator) if info == 0 else None


def _band_solve(factor, r):
    """(A Aᵀ + shift I)⁻¹ r through the dissected factor, in place in ``r``.

    A forward band solve on each half, the separator's two triangular
    solves, and a back band solve on each half: the same dtbsv calls as
    LAPACK's dpbtrs where the band is not split.
    """
    left, right, couple_left, couple_right, separator = factor
    h = len(left) - 1
    mid, cut = left.shape[1], left.shape[1] + right.shape[1]
    halves = [(left, couple_left, r[:mid]), (right, couple_right, r[mid:cut])]
    halves = [half for half in halves if half[2].size]  # BLAS takes no empty operand
    tail = r[cut:]
    for band, _, part in halves:
        dtbsv(h, band, part, lower=1, overwrite_x=1)
    if tail.size:  # a split band
        for _, couple, part in halves:
            dgemv(-1.0, couple, part[-len(couple):], beta=1.0, y=tail, trans=1, overwrite_y=1)
        dtrsv(separator, tail, lower=1, overwrite_x=1)
        dtrsv(separator, tail, lower=1, trans=1, overwrite_x=1)
        for _, couple, part in halves:
            dgemv(-1.0, couple, tail, beta=1.0, y=part[-len(couple):], overwrite_y=1)
    for band, _, part in halves:
        dtbsv(h, band, part, lower=1, trans=1, overwrite_x=1)
    return r


def _superlu(A, shift):
    """Solver of (A Aᵀ + shift I) y = r by SuperLU in symmetric mode.

    The only path that forms the whole Gram matrix, through A's scalar rows,
    expanded from its corner form all at once.
    """
    rows = _blocks(A, 0, len(A.indptr) - 1).tocsr()
    gram = (rows @ rows.T).tocsc()
    del rows
    if shift > 0.0:
        gram = (gram + shift * identity(gram.shape[0], format="csc")).tocsc()
    try:
        factor = splu(gram, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FloatingPointError(f"normal-equations factorization failed: {exc}") from exc
    return factor.solve


# Overflow from an extreme load or wall shows up as a non-finite residual or
# stress, which raises FloatingPointError below instead of warning.
@np.errstate(over="ignore", invalid="ignore")
def solve_membrane_stress(mesh, model=MembraneModel()):
    """Solve nodal equilibrium for per-element membrane resultants.

    Raises FloatingPointError when the relative equilibrium residual at free
    vertices is above 1e-6 (the message names the residual, the limit and the
    refinement rounds) or the principal stresses overflow, and ValueError on
    meshes with no face or that :func:`~aortafit.quadmesh.validate_topology`
    refuses, naming the fault.
    """
    if mesh.n_faces == 0:
        raise ValueError("membrane solve needs a mesh with at least one face")
    boundary_edges = validate_topology(mesh)
    # A mesh below 2^-64 mm is solved as ``unit_scale`` moves it, and its
    # resultants, which have the degree of a length, are scaled back.
    points, e = unit_scale(mesh.vertices)
    if e:
        mesh = mesh.with_vertices(points)

    t1 = _element_frames(mesh)[0]
    fixed = _fixed_vertices(mesh, model, boundary_edges)
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[fixed] = False

    # The system is always underdetermined (six unknowns per quad); the
    # minimum-norm solution x = A^T y comes from the damped second-kind normal
    # equations (A A^T + damp^2 I) y = b, factored once.  That Gram matrix is
    # symmetric positive definite (semidefinite without damping) and, on a
    # structured tube in mesh order, a band of half-width 3 (C + 1) + 2 for C
    # vertices per ring, which LAPACK's banded Cholesky factors with no fill.
    # OpenBLAS threads the updates inside that factor, and a different split
    # of its sums gives different bytes, so it runs on one BLAS thread.
    # Where the damping is too small to keep the factor positive definite,
    # SuperLU's symmetric-mode LU takes over; raising the damping instead
    # would move the resultants of every mesh.  An open mesh with no fixed
    # vertex (free tube ends) keeps such mechanism modes, so it goes to
    # SuperLU directly, with A's rows in mesh order.  Refining y against the
    # true residual recovers the digits a single solve loses to roundoff on
    # near-mechanism modes and removes the Tikhonov bias where the damping
    # barely matters, while keeping x free of null-space components.
    with _one_blas_thread() as pinned:
        banded = pinned and free.any() and (fixed.size > 0 or boundary_edges == 0)
        order, width = _band_order(mesh.faces, free) if banded else (slice(None), None)
        order, halves = _dissect(order, width) if banded else (order, None)
        vertices = np.flatnonzero(free)[order]
        A, b = _assemble(mesh, t1, vertices, model.pressure * KPA_TO_N_PER_MM2)
        # The RMS column norm of A: a corner's block has squared norm
        # ½ (α² + β²), summed in element order whatever the band order.
        damp = _DAMPING * np.sqrt(np.sum(0.5 * (A.alpha * A.alpha + A.beta * A.beta)) / len(A.rows))
        del t1, free, order, vertices  # nothing but A and b stays beside the bands
        factor = banded and _band_factor(A, width, halves, damp**2)
        solve = functools.partial(_band_solve, factor) if factor else _superlu(A, damp**2)

        b_norm = _norm(b)
        y = np.zeros_like(b)
        x = np.zeros(len(A.rows))
        r = -b  # A x - b, at x = 0
        residual = 1.0 if b_norm > 0.0 else 0.0
        itn = 0
        while b_norm > 0.0 and residual > _REFINE_TOL and itn < _REFINE_ROUNDS:
            # In place where it can be: the band is still alive.
            y += solve(np.negative(r, out=r))
            _rmatvec(A, y, out=x)
            itn += 1
            _matvec(A, x, out=r)
            improved = _norm(np.subtract(r, b, out=r)) / b_norm
            if improved >= 0.9 * residual and itn > 1:
                residual = min(residual, improved)
                break  # stagnated at the attainable floor
            residual = improved
    del factor, solve  # before the collapse allocates its temporaries
    if not residual <= _RESIDUAL_LIMIT:  # a NaN residual fails too
        raise FloatingPointError(f"equilibrium residual {residual:.3g} above limit {_RESIDUAL_LIMIT:.3g} "
                                 f"after {itn} refinement rounds")

    field = StressField(
        resultants=np.ldexp(_collapse_resultants(x, mesh, A.frames), -e),
        thickness=model.thickness,
        pressure=model.pressure,
        residual=residual,
    )
    # A finite sum of |stress| keeps each stress and every regional sum finite.
    if not np.isfinite(np.abs(field.principal).sum()):
        raise FloatingPointError(f"principal stresses overflow at pressure {model.pressure:g} kPa and "
                                 f"thickness {model.thickness:g} mm")
    return field

