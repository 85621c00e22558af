"""Structured quadrilateral surface meshes with anatomical region labels.

A mesh is vertices (mm), ordered quad faces, and a per-vertex region label
drawn from :data:`REGIONS` (root, ascending, arch, descending). Meshes built
from the structured tube template additionally carry a ``ring_layout``
``(C, A)``: C vertices per circumferential ring, A rings along the axis, with
vertex ``a*C + c`` sitting on ring ``a`` at circumferential slot ``c``.

File format (legacy VTK-style ASCII polydata)
---------------------------------------------
::

    # vtk DataFile Version 3.0
    <title line>
    ASCII
    DATASET POLYDATA
    POINTS <nv> double
    <x y z> ...                      # full shortest-roundtrip decimals
    POLYGONS <nf> <5*nf>
    4 <i0> <i1> <i2> <i3> ...        # quads only
    POINT_DATA <nv>
    SCALARS region int 1
    LOOKUP_TABLE default
    <label> ...                      # region code per vertex
    FIELD meta 1                     # only when ring_layout is present
    ring_layout 2 1 int
    <C> <A>
    CELL_DATA <nf>                   # optional, written when cell data given
    FIELD celldata <k>
    <name> <ncomp> <nf> double
    <values> ...

Numbers may be split across lines arbitrarily. The reader parses each
numeric section as one array; on a file it cannot vouch for, a token walker
parses again and reports the line of the offending token on error.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "REGIONS",
    "QuadMesh",
    "TopologyReport",
    "validate_topology",
    "average_template",
    "rings",
    "majority_region",
    "face_regions",
    "load_mesh",
    "save_mesh",
]

REGIONS = ("root", "ascending", "arch", "descending")


@dataclass(frozen=True)
class QuadMesh:
    """Quad surface mesh: (n, 3) mm vertices, (m, 4) faces, (n,) region codes."""

    vertices: np.ndarray
    faces: np.ndarray
    regions: np.ndarray
    ring_layout: Optional[tuple] = None

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        faces = np.asarray(self.faces, dtype=np.int64)
        regs = np.asarray(self.regions, dtype=np.int8)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"vertices must be (n, 3), got {verts.shape}")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertex coordinates must be finite")
        if faces.ndim != 2 or faces.shape[1] != 4:
            raise ValueError(f"faces must be (m, 4), got {faces.shape}")
        if regs.shape != (len(verts),):
            raise ValueError("regions must hold one label per vertex")
        if faces.size and (faces.min() < 0 or faces.max() >= len(verts)):
            raise ValueError("face index out of range")
        if regs.size and (regs.min() < 0 or regs.max() >= len(REGIONS)):
            raise ValueError("region labels must partition vertices into known regions")
        if self.ring_layout is not None:
            c, a = (int(x) for x in self.ring_layout)
            if c < 3 or a < 2:
                raise ValueError(f"ring_layout needs C >= 3, A >= 2, got ({c}, {a})")
            if len(verts) != c * a:
                raise ValueError(f"ring_layout ({c}, {a}) wants {c * a} vertices, mesh has {len(verts)}")
            if len(faces) != c * (a - 1):
                raise ValueError(f"ring_layout ({c}, {a}) wants {c * (a - 1)} faces, mesh has {len(faces)}")
            object.__setattr__(self, "ring_layout", (c, a))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "faces", faces)
        object.__setattr__(self, "regions", regs)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def with_vertices(self, vertices):
        """Same connectivity and labels, new vertex positions."""
        return QuadMesh(vertices, self.faces, self.regions, self.ring_layout)

    def bounds(self):
        """Axis-aligned (min_corner, max_corner) in mm."""
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def majority_region(labels):
    """Majority region code along the last axis of ``labels``, ties to the lowest code."""
    counts = (labels[..., None] == np.arange(len(REGIONS))).sum(axis=-2)
    return counts.argmax(axis=-1).astype(np.int8)


def face_regions(mesh):
    """Per-face region code: majority of the 4 corner labels, ties to the lowest code."""
    return majority_region(mesh.regions[mesh.faces])


def rings(mesh):
    """Circumferential vertex-index loops as an (A, C) array, ordered axially."""
    if mesh.ring_layout is None:
        raise ValueError("mesh has no ring_layout; rings are undefined")
    c, a = mesh.ring_layout
    return np.arange(c * a, dtype=np.int64).reshape(a, c)


@dataclass
class TopologyReport:
    """Diagnostics from :func:`validate_topology`."""

    n_faces: int
    degenerate_faces: list
    nonmanifold_edges: list
    inconsistent_edges: list
    boundary_edge_count: int

    @property
    def manifold(self):
        return not self.nonmanifold_edges

    @property
    def oriented(self):
        return not self.inconsistent_edges

    @property
    def ok(self):
        return self.manifold and self.oriented and not self.degenerate_faces


def validate_topology(mesh):
    """Check manifoldness, orientation consistency, and face degeneracy.

    Each undirected edge may be used by at most two faces; a shared edge must
    be traversed in opposite directions by its two faces. Purely diagnostic:
    never raises on a bad mesh.
    """
    faces = mesh.faces
    sorted_f = np.sort(faces, axis=1)
    degen = np.nonzero((sorted_f[:, 1:] == sorted_f[:, :-1]).any(axis=1))[0]

    a = faces
    b = np.roll(faces, -1, axis=1)
    tail = a.reshape(-1).astype(np.int64)
    head = b.reshape(-1).astype(np.int64)
    lo = np.minimum(tail, head)
    hi = np.maximum(tail, head)
    key = lo * mesh.n_vertices + hi
    sign = np.where(tail < head, 1, -1)
    # Degenerate self-edges (tail == head) would alias sign; drop them here,
    # they are already reported through degenerate_faces.
    keep = tail != head
    key, sign, lo, hi = key[keep], sign[keep], lo[keep], hi[keep]

    order = np.argsort(key, kind="stable")
    key_s, sign_s = key[order], sign[order]
    uniq, start = np.unique(key_s, return_index=True)
    counts = np.diff(np.append(start, len(key_s)))
    signsum = np.add.reduceat(sign_s, start) if len(key_s) else np.array([], dtype=int)

    def decode(k):
        return (int(k // mesh.n_vertices), int(k % mesh.n_vertices))

    nonmanifold = [decode(k) for k in uniq[counts > 2]]
    inconsistent = [decode(k) for k in uniq[(counts == 2) & (np.abs(signsum) == 2)]]
    boundary = int(np.sum(counts == 1))

    return TopologyReport(
        n_faces=mesh.n_faces,
        degenerate_faces=degen.tolist(),
        nonmanifold_edges=nonmanifold,
        inconsistent_edges=inconsistent,
        boundary_edge_count=boundary,
    )


def average_template(meshes):
    """Vertex-wise arithmetic mean of corresponded meshes.

    All inputs must share faces, region labels, and ring layout; connectivity
    and labels are copied to the result.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("need at least one mesh to average")
    ref = meshes[0]
    for i, m in enumerate(meshes[1:], start=1):
        if m.vertices.shape != ref.vertices.shape or not np.array_equal(m.faces, ref.faces):
            raise ValueError(f"mesh {i} connectivity differs from mesh 0")
        if not np.array_equal(m.regions, ref.regions):
            raise ValueError(f"mesh {i} region labels differ from mesh 0")
        if m.ring_layout != ref.ring_layout:
            raise ValueError(f"mesh {i} ring_layout differs from mesh 0")
    stacked = np.stack([m.vertices for m in meshes], axis=0)
    return ref.with_vertices(stacked.mean(axis=0))


# ---------------------------------------------------------------------------
# Mesh file I/O
# ---------------------------------------------------------------------------


class MeshFileError(ValueError):
    """Malformed mesh file; message carries file and line context."""


def save_mesh(mesh, path, cell_data=None, title="aortafit mesh"):
    """Write a mesh (plus optional per-face cell data arrays) to ``path``.

    ``cell_data`` maps array names to (n_faces,) or (n_faces, k) float arrays.
    Vertex coordinates round-trip bitwise (shortest-roundtrip decimals). Rows
    are formatted from ``tolist()`` values, one f-string per row and one
    ``repr`` per value of a 1-component array.
    """
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET POLYDATA",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines += [f"{x!r} {y!r} {z!r}" for x, y, z in mesh.vertices.tolist()]
    lines.append(f"POLYGONS {mesh.n_faces} {5 * mesh.n_faces}")
    lines += [f"4 {a} {b} {c} {d}" for a, b, c, d in mesh.faces.tolist()]
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines += map(str, mesh.regions.tolist())
    if mesh.ring_layout is not None:
        lines.append("FIELD meta 1")
        lines.append("ring_layout 2 1 int")
        lines.append(f"{mesh.ring_layout[0]} {mesh.ring_layout[1]}")
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_faces}")
        lines.append(f"FIELD celldata {len(cell_data)}")
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape[0] != mesh.n_faces:
                raise ValueError(f"cell data {name!r} has {arr.shape[0]} rows, mesh has {mesh.n_faces} faces")
            ncomp = 1 if arr.ndim == 1 else arr.shape[1]
            lines.append(f"{name} {ncomp} {mesh.n_faces} double")
            flat = arr.reshape(mesh.n_faces, -1)
            if flat.shape[1] == 1:
                lines += map(repr, flat[:, 0].tolist())
            else:
                lines += [" ".join(map(repr, row)) for row in flat.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


class _Tokens:
    """Whitespace token stream with line numbers for error context."""

    def __init__(self, path):
        self.path = path
        self.toks = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                for tok in line.split():
                    self.toks.append((tok, lineno))
        self.pos = 0
        self.last_line = 0

    def peek(self):
        if self.pos >= len(self.toks):
            return None
        return self.toks[self.pos][0]

    def next(self, what="token"):
        if self.pos >= len(self.toks):
            raise MeshFileError(f"{self.path}: unexpected end of file, expected {what}")
        tok, line = self.toks[self.pos]
        self.pos += 1
        self.last_line = line
        return tok

    def error(self, msg):
        raise MeshFileError(f"{self.path}:{self.last_line}: {msg}")

    def expect(self, literal):
        tok = self.next(literal)
        if tok != literal:
            self.error(f"expected {literal!r}, got {tok!r}")

    def next_int(self, what="integer"):
        tok = self.next(what)
        try:
            return int(tok)
        except ValueError:
            self.error(f"expected {what}, got {tok!r}")

    def next_float(self, what="number"):
        tok = self.next(what)
        try:
            return float(tok)
        except ValueError:
            self.error(f"expected {what}, got {tok!r}")


def _walk_tokens(path):
    """Parse a mesh file token by token: the reference grammar and the error path.

    Returns (vertices, faces, regions, ring_layout, cell_data). Raises
    MeshFileError naming the file and the line of the first bad token.
    """
    # The two header lines are free text; skip them by raw line count.
    with open(path) as fh:
        header = [fh.readline() for _ in range(4)]
    if not header[0].startswith("# vtk DataFile"):
        raise MeshFileError(f"{path}:1: not a VTK-style mesh file")
    if header[2].strip() != "ASCII":
        raise MeshFileError(f"{path}:3: only ASCII files are supported")
    if header[3].strip() != "DATASET POLYDATA":
        raise MeshFileError(f"{path}:4: expected DATASET POLYDATA")

    toks = _Tokens(path)
    # Skip tokens belonging to the 4 header lines.
    while toks.pos < len(toks.toks) and toks.toks[toks.pos][1] <= 4:
        toks.pos += 1

    toks.expect("POINTS")
    nv = toks.next_int("vertex count")
    toks.next("point dtype")
    verts = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        for k in range(3):
            verts[i, k] = toks.next_float("coordinate")

    toks.expect("POLYGONS")
    nf = toks.next_int("face count")
    total = toks.next_int("polygon size total")
    faces = np.empty((nf, 4), dtype=np.int64)
    for i in range(nf):
        sz = toks.next_int("cell size")
        if sz != 4:
            toks.error(f"non-quad cell of size {sz} at face {i}")
        for k in range(4):
            idx = toks.next_int("vertex index")
            if not 0 <= idx < nv:
                toks.error(f"vertex index {idx} out of range 0..{nv - 1} in face {i}")
            faces[i, k] = idx
    if total != 5 * nf:
        raise MeshFileError(f"{path}: POLYGONS size total {total} != {5 * nf}")

    regions = np.zeros(nv, dtype=np.int8)
    ring_layout = None
    cell_data = {}
    while toks.peek() is not None:
        section = toks.next("section")
        if section == "POINT_DATA":
            count = toks.next_int("point data count")
            if count != nv:
                toks.error(f"POINT_DATA count {count} != {nv} vertices")
            toks.expect("SCALARS")
            name = toks.next("scalar name")
            if name != "region":
                toks.error(f"expected point scalars 'region', got {name!r}")
            toks.next("scalar dtype")
            toks.next("scalar ncomp")
            toks.expect("LOOKUP_TABLE")
            toks.next("lookup table name")
            for i in range(nv):
                label = toks.next_int("region label")
                if not 0 <= label < len(REGIONS):
                    toks.error(f"region label {label} out of range 0..{len(REGIONS) - 1}")
                regions[i] = label
        elif section == "FIELD":
            toks.next("field name")
            narr = toks.next_int("field array count")
            for _ in range(narr):
                aname = toks.next("array name")
                ncomp = toks.next_int("array ncomp")
                ntup = toks.next_int("array ntuples")
                toks.next("array dtype")
                vals = [toks.next_float("field value") for _ in range(ncomp * ntup)]
                if aname == "ring_layout":
                    if len(vals) != 2 or not all(x.is_integer() and 0 < x <= nv for x in vals):
                        toks.error(f"ring_layout must hold 2 integers in 1..{nv}, got {vals}")
                    ring_layout = (int(vals[0]), int(vals[1]))
        elif section == "CELL_DATA":
            count = toks.next_int("cell data count")
            if count != nf:
                toks.error(f"CELL_DATA count {count} != {nf} faces")
            toks.expect("FIELD")
            toks.next("field name")
            narr = toks.next_int("field array count")
            for _ in range(narr):
                aname = toks.next("array name")
                ncomp = toks.next_int("array ncomp")
                ntup = toks.next_int("array ntuples")
                if ntup != nf:
                    toks.error(f"cell array {aname!r} has {ntup} tuples, mesh has {nf} faces")
                toks.next("array dtype")
                arr = np.empty(ncomp * ntup, dtype=np.float64)
                for i in range(arr.size):
                    arr[i] = toks.next_float("cell value")
                cell_data[aname] = arr.reshape(ntup, ncomp) if ncomp > 1 else arr.reshape(ntup)
        else:
            toks.error(f"unknown section {section!r}")

    return verts, faces, regions, ring_layout, cell_data


_NUMERIC_RUN = re.compile(r"[\s0-9eE.+-]*")
_TOKEN = re.compile(r"\S+")


class _Reject(Exception):
    """The block reader cannot vouch for a file; the token walker decides."""


class _Blocks:
    """Cursor over a mesh file's text that reads each numeric run as one array.

    Any token or value the walker might read differently raises _Reject.
    """

    def __init__(self, text, pos):
        self.text = text
        self.pos = pos

    def more(self):
        return _TOKEN.search(self.text, self.pos) is not None

    def next(self):
        m = _TOKEN.search(self.text, self.pos)
        if m is None:
            raise _Reject
        self.pos = m.end()
        return m.group()

    def expect(self, literal):
        if self.next() != literal:
            raise _Reject

    def count(self):
        """The next token as a nonnegative integer."""
        try:
            n = int(self.next())
        except ValueError:
            raise _Reject from None
        if n < 0:
            raise _Reject
        return n

    def block(self, count, dtype):
        """The next ``count`` tokens as one array, from one ``np.fromstring`` call.

        The span is the run of digits, signs, points, ``e`` and ``E`` from the
        cursor. It must end at a token boundary and hold exactly ``count``
        values. Files outside that (``nan``, ``inf``, ``1_0``, non-ASCII
        digits, a numeric-looking array name right after a block) go to the
        walker.
        """
        if count == 0:
            return np.zeros(0, dtype=dtype)
        text, start = self.text, self.pos
        end = _NUMERIC_RUN.match(text, start).end()
        if end < len(text) and not text[end - 1].isspace():
            raise _Reject  # the run stops inside a token
        span = text[start:end]
        if not span or span.isspace():  # fromstring(" ") would give one value
            raise _Reject
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x warns on a partial parse
            try:
                values = np.fromstring(span, dtype=dtype, sep=" ")
            except (ValueError, DeprecationWarning):
                raise _Reject from None
        if values.size != count:
            raise _Reject
        self.pos = end
        return values


def _read_blocks(text):
    """Parse a mesh file's text with the walker's grammar, one array per section.

    Returns what :func:`_walk_tokens` returns for the same file, with equal
    arrays of equal dtypes, or raises _Reject. Counts and ranges are checked
    on whole arrays: cell size 4, vertex indices in 0..nv-1, region labels in
    0..3, and ring_layout as 2 integers in 1..nv.
    """
    pos = -1
    for _ in range(4):
        pos = text.find("\n", pos + 1)
        if pos < 0:
            raise _Reject
    header = text[:pos].split("\n")
    if (not header[0].startswith("# vtk DataFile") or header[2].strip() != "ASCII"
            or header[3].strip() != "DATASET POLYDATA"):
        raise _Reject
    cur = _Blocks(text, pos + 1)

    cur.expect("POINTS")
    nv = cur.count()
    cur.next()
    verts = cur.block(3 * nv, np.float64).reshape(nv, 3)

    cur.expect("POLYGONS")
    nf = cur.count()
    if cur.count() != 5 * nf:
        raise _Reject
    cells = cur.block(5 * nf, np.int64).reshape(nf, 5)
    faces = np.ascontiguousarray(cells[:, 1:])
    if nf and ((cells[:, 0] != 4).any() or faces.min() < 0 or faces.max() >= nv):
        raise _Reject

    regions = np.zeros(nv, dtype=np.int8)
    ring_layout = None
    cell_data = {}
    while cur.more():
        section = cur.next()
        if section == "POINT_DATA":
            if cur.count() != nv:
                raise _Reject
            cur.expect("SCALARS")
            cur.expect("region")
            cur.next()
            cur.next()
            cur.expect("LOOKUP_TABLE")
            cur.next()
            labels = cur.block(nv, np.int64)
            if nv and (labels.min() < 0 or labels.max() >= len(REGIONS)):
                raise _Reject
            regions = labels.astype(np.int8)
        elif section == "FIELD":
            cur.next()
            for _ in range(cur.count()):
                aname = cur.next()
                ncomp = cur.count()
                ntup = cur.count()
                cur.next()
                vals = cur.block(ncomp * ntup, np.float64)
                if aname == "ring_layout":
                    if vals.size != 2 or not np.all((vals == np.floor(vals)) & (vals > 0) & (vals <= nv)):
                        raise _Reject
                    ring_layout = (int(vals[0]), int(vals[1]))
        elif section == "CELL_DATA":
            if cur.count() != nf:
                raise _Reject
            cur.expect("FIELD")
            cur.next()
            for _ in range(cur.count()):
                aname = cur.next()
                ncomp = cur.count()
                if ncomp == 0 or cur.count() != nf:
                    raise _Reject
                cur.next()
                vals = cur.block(ncomp * nf, np.float64)
                cell_data[aname] = vals.reshape(nf, ncomp) if ncomp > 1 else vals
        else:
            raise _Reject
    return verts, faces, regions, ring_layout, cell_data


def load_mesh(path, return_cell_data=False):
    """Read a mesh file written by :func:`save_mesh`.

    The file is read once, and each numeric section (coordinates, polygons,
    region labels, each field and cell-data array) is parsed as one array
    and checked as a whole. A file that this block reader cannot vouch for
    is parsed again by the token walker, which accepts the same files with
    the same values and reports the file and line of the first bad token.

    With ``return_cell_data`` the result is ``(mesh, dict)`` where the dict
    holds any per-face arrays stored in the file.
    """
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            text = ""  # the walker reports it
    try:
        verts, faces, regions, ring_layout, cell_data = _read_blocks(text)
    except _Reject:
        verts, faces, regions, ring_layout, cell_data = _walk_tokens(path)
    try:
        mesh = QuadMesh(verts, faces, regions, ring_layout)
    except ValueError as exc:
        raise MeshFileError(f"{path}: {exc}") from None
    if return_cell_data:
        return mesh, cell_data
    return mesh
