"""Structured quadrilateral surface meshes with anatomical region labels.

A mesh is vertices (mm), ordered quad faces, and a per-vertex region label
drawn from :data:`REGIONS` (root, ascending, arch, descending). Meshes built
from the structured tube template additionally carry a ``ring_layout``
``(C, A)``: C vertices per circumferential ring, A rings along the axis, with
vertex ``a*C + c`` sitting on ring ``a`` at circumferential slot ``c``.

:func:`validate_topology` returns a mesh's boundary-edge count, or raises
ValueError naming its first fault: a degenerate face, a non-manifold edge or
an inconsistently oriented edge.

:func:`unit_scale` is the one exact power-of-two scale by which ``quality``,
``fea`` and ``clinical`` measure groups of points within 2^-64 mm of their
first point, whose squared lengths would otherwise underflow.

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
    <name> <ncomp> <nf> double       # save_mesh writes ncomp 1; the reader takes any
    <values> ...

Numbers may be split across lines arbitrarily; a number is what Python's
``float()`` (``int()`` for counts, polygons and labels) accepts. One reader
walks the file: it parses each numeric section with one ``np.fromstring``
call and checks it as a whole, and re-reads a section token by token only to
read forms that call does not take or to name the line of the first bad
token.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "REGIONS",
    "TRIANGLES",
    "QuadMesh",
    "validate_topology",
    "average_template",
    "rings",
    "triangle_normals",
    "unit_scale",
    "majority_region",
    "face_regions",
    "load_mesh",
    "save_mesh",
]

REGIONS = ("root", "ascending", "arch", "descending")

# A quad's two triangles, (v0, v1, v2) and (v0, v2, v3), split along its v0-v2
# diagonal, as the quality audit and the membrane solve both read it: triangle
# s of face e is the mesh's triangle 2 e + s.
TRIANGLES = np.array([[0, 1, 2], [0, 2, 3]])


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


def triangle_normals(quads):
    """Normals of twice the area, (m, 2, 3), of the ``TRIANGLES`` of (m, 4, 3) quad corners.

    Both fan from v0: with e the edges v1 - v0, v2 - v0, v3 - v0, triangle s has normal e[s] x e[s + 1].
    """
    e = quads[:, 1:] - quads[:, :1]
    return np.cross(e[:, :2], e[:, 1:])


def unit_scale(points):
    """Groups of points (..., k, 3) at a scale where their squared lengths cannot underflow.

    A group whose largest offset from its first point (max abs component) is
    below 2^-64 is moved to start at the origin and scaled by the power of
    two 2^e that brings that offset into [0.5, 1); every other group comes
    back unchanged, with e = 0. Returns the groups (``points`` itself when
    no group is scaled) and the (...,) integer e. Ratios of lengths, areas
    and volumes are kept exactly, and a length of a scaled group is 2^e
    times the original's. The offsets, not the absolute coordinates, are
    scaled, so that a tiny group far from the origin cannot overflow; groups
    above 2^-64 keep their own rounding.
    """
    p = np.asarray(points, dtype=np.float64)
    offsets = p - p[..., :1, :]
    largest = np.abs(offsets).max(axis=(-2, -1))
    e = np.where(largest < 2.0**-64, -np.frexp(largest)[1], 0)  # 0 where the points coincide
    if not np.any(e):
        return p, e  # no copy
    return np.where((e > 0)[..., None, None], np.ldexp(offsets, e[..., None, None]), p), e


def validate_topology(mesh):
    """The boundary-edge count of a manifold, consistently oriented mesh.

    Each undirected edge may be used by at most two faces; a shared edge must
    be traversed in opposite directions by its two faces, and no face may
    repeat a vertex. A mesh that breaks this raises ValueError naming its
    first fault: a degenerate face, else a non-manifold edge, else an
    inconsistently oriented edge, the first of its kind in face order.
    """
    faces = mesh.faces
    sorted_f = np.sort(faces, axis=1)
    degen = np.flatnonzero((sorted_f[:, 1:] == sorted_f[:, :-1]).any(axis=1))
    if degen.size:
        raise ValueError(f"degenerate face {degen[0]}: repeated vertex in {faces[degen[0]].tolist()}")

    # Directed edges in face order; edge k belongs to face k // 4.
    tail = faces.reshape(-1)
    head = np.roll(faces, -1, axis=1).reshape(-1)
    forward = tail < head
    key = np.where(forward, tail, head) * mesh.n_vertices + np.where(forward, head, tail)
    _, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True, return_counts=True)
    n_forward = np.bincount(inverse[forward], minlength=counts.size)

    def first_uses(bad):
        """The directed edges of the first flagged edge in face order, or None."""
        return np.flatnonzero(inverse == np.flatnonzero(bad)[np.argmin(first[bad])]) if bad.any() else None

    uses = first_uses(counts > 2)
    if uses is not None:
        lo, hi = sorted((tail[uses[0]], head[uses[0]]))
        raise ValueError(f"non-manifold edge ({lo}, {hi}): shared by faces {(uses // 4).tolist()}")
    uses = first_uses((counts == 2) & (n_forward != 1))
    if uses is not None:
        t, h = tail[uses[0]], head[uses[0]]
        raise ValueError(f"inconsistently oriented edge ({min(t, h)}, {max(t, h)}): "
                         f"faces {uses[0] // 4} and {uses[1] // 4} both run it from {t} to {h}")
    return int(np.sum(counts == 1))


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


def _render_body(mesh):
    """The POINTS through FIELD sections of ``mesh``'s file, as :func:`save_mesh` writes them.

    Rows are formatted from ``tolist()`` values, one f-string per row.
    Vertex coordinates round-trip bitwise (shortest-roundtrip decimals).
    """
    lines = [f"POINTS {mesh.n_vertices} double"]
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
    return "\n".join(lines) + "\n"


def save_mesh(mesh, path, cell_data=None, title="aortafit mesh", body=None):
    """Write a mesh (plus optional per-face cell data arrays) to ``path``.

    ``cell_data`` maps array names to (n_faces,) float arrays, written one
    ``repr`` per value; an array of another shape raises ValueError naming
    it. Vertex coordinates round-trip bitwise (shortest-roundtrip decimals).
    ``body`` may pass ``_render_body(mesh)`` rendered earlier, to write one
    mesh to several files without formatting its rows again.
    """
    lines = []
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_faces}")
        lines.append(f"FIELD celldata {len(cell_data)}")
        for name, arr in cell_data.items():
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != (mesh.n_faces,):
                raise ValueError(f"cell data {name!r} has shape {arr.shape}, mesh has {mesh.n_faces} faces")
            lines.append(f"{name} 1 {mesh.n_faces} double")
            lines += map(repr, arr.tolist())
    if body is None:
        body = _render_body(mesh)
    with open(path, "w") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET POLYDATA\n")
        fh.write(body)
        if lines:
            fh.write("\n".join(lines) + "\n")
    return path


_NUMERIC_RUN = re.compile(r"[\s0-9eE.+-]*")
_TOKEN = re.compile(r"\S+")


class _Cursor:
    """Position in a mesh file's text; reads tokens, counts and numeric blocks.

    Every error names the file and, except at the end of the file, the line
    of the offending token.
    """

    def __init__(self, path, text, pos):
        self.path = path
        self.text = text
        self.pos = pos

    def error(self, msg, at=None):
        """Raise ValueError on the line of offset ``at``, by default of the last token read."""
        if at is None:
            at = self.pos
            while self.text[at - 1].isspace():  # a block's run may end in blank lines
                at -= 1
        line = self.text.count("\n", 0, at) + 1
        raise ValueError(f"{self.path}:{line}: {msg}")

    def more(self):
        return _TOKEN.search(self.text, self.pos) is not None

    def next(self, what):
        m = _TOKEN.search(self.text, self.pos)
        if m is None:
            raise ValueError(f"{self.path}: unexpected end of file, expected {what}")
        self.pos = m.end()
        return m.group()

    def expect(self, literal):
        tok = self.next(literal)
        if tok != literal:
            self.error(f"expected {literal!r}, got {tok!r}")

    def number(self, what, least=None):
        """The next token as an integer, at least ``least`` when given."""
        tok = self.next(what)
        try:
            value = int(tok)
            if least is None or value >= least:
                return value
        except ValueError:
            pass
        self.error(f"expected {what}, got {tok!r}")

    def block(self, count, kind, whats, check=None):
        """The next ``count`` numbers as one array of ``kind`` (``int`` or ``float``).

        A number is what ``kind(token)`` accepts. The value at position ``p``
        is named ``whats[p % len(whats)]``. ``check(values)`` returns None or
        the first bad position and its message. One ``np.fromstring`` call
        reads the run of digits, signs, points, ``e`` and ``E`` from the
        cursor. When that run stops inside a token, does not hold exactly
        ``count`` values, fails ``check``, or holds a sign in an integer
        section (``np.fromstring`` reads a lone sign there as part of the next
        integer, or as 0 at the end), the tokens are read again one by one,
        and the first bad one in file order is reported on its line.
        """
        if count <= 0:
            return np.zeros(0, dtype=kind)
        text, start = self.text, self.pos
        end = _NUMERIC_RUN.match(text, start).end()
        span = text[start:end]
        if ((end == len(text) or text[end - 1].isspace()) and not span.isspace()
                and not (kind is int and ("-" in span or "+" in span))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x warns on a partial parse
                try:
                    values = np.fromstring(span, dtype=kind, sep=" ")
                except (ValueError, DeprecationWarning):
                    values = None
            if values is not None and values.size == count and (check is None or check(values) is None):
                self.pos = end
                return values
        values, starts, fault = [], [], None
        for m in _TOKEN.finditer(text, start):
            try:
                values.append(kind(m.group()))
            except ValueError:
                fault = m.start(), f"expected {whats[len(values) % len(whats)]}, got {m.group()!r}"
                break
            starts.append(m.start())
            self.pos = m.end()
            if len(values) == count:
                break
        bad = check(np.array(values, dtype=object)) if check else None
        if bad is not None:
            self.error(bad[1], starts[bad[0]])
        if fault is not None:
            self.error(fault[1], fault[0])
        if len(values) < count:
            raise ValueError(f"{self.path}: unexpected end of file, "
                                f"expected {whats[len(values) % len(whats)]}")
        return np.array(values, dtype=kind)


def _first_bad(bad, message):
    """``(p, message(p))`` for the first true ``p`` in ``bad``, or None."""
    hits = np.flatnonzero(bad)
    return (int(hits[0]), message(int(hits[0]))) if hits.size else None


def _parse(path, text):
    """Parse a mesh file's text into (vertices, faces, regions, ring_layout, cell_data)."""
    # The title line is free text, so the header is four raw lines.
    lines, pos = [], 0
    for _ in range(4):
        stop = text.find("\n", pos) + 1 or len(text)
        lines.append(text[pos:stop])
        pos = stop
    if not lines[0].startswith("# vtk DataFile"):
        raise ValueError(f"{path}:1: not a VTK-style mesh file")
    if lines[2].strip() != "ASCII":
        raise ValueError(f"{path}:3: only ASCII files are supported")
    if lines[3].strip() != "DATASET POLYDATA":
        raise ValueError(f"{path}:4: expected DATASET POLYDATA")
    cur = _Cursor(path, text, pos)

    cur.expect("POINTS")
    nv = cur.number("vertex count", least=0)
    cur.next("point dtype")
    verts = cur.block(3 * nv, float, ("coordinate",)).reshape(nv, 3)

    def check_cells(v):
        bad = (v < 0) | (v >= nv)
        bad[::5] = v[::5] != 4

        def message(p):
            if p % 5 == 0:
                return f"non-quad cell of size {v[p]} at face {p // 5}"
            return f"vertex index {v[p]} out of range 0..{nv - 1} in face {p // 5}"
        return _first_bad(bad, message)

    cur.expect("POLYGONS")
    nf = cur.number("face count", least=0)
    total, total_at = cur.number("polygon size total"), cur.pos
    cells = cur.block(5 * nf, int, ("cell size",) + ("vertex index",) * 4, check_cells)
    faces = np.ascontiguousarray(cells.reshape(nf, 5)[:, 1:])
    if total != 5 * nf:
        cur.error(f"POLYGONS size total {total} != {5 * nf}", total_at)

    def check_labels(v):
        return _first_bad((v < 0) | (v >= len(REGIONS)),
                          lambda p: f"region label {v[p]} out of range 0..{len(REGIONS) - 1}")

    regions = np.zeros(nv, dtype=np.int8)
    ring_layout = None
    cell_data = {}
    while cur.more():
        section = cur.next("section")
        if section == "POINT_DATA":
            count = cur.number("point data count")
            if count != nv:
                cur.error(f"POINT_DATA count {count} != {nv} vertices")
            cur.expect("SCALARS")
            name = cur.next("scalar name")
            if name != "region":
                cur.error(f"expected point scalars 'region', got {name!r}")
            cur.next("scalar dtype")
            cur.next("scalar ncomp")
            cur.expect("LOOKUP_TABLE")
            cur.next("lookup table name")
            regions = cur.block(nv, int, ("region label",), check_labels).astype(np.int8)
        elif section == "FIELD":
            cur.next("field name")
            for _ in range(cur.number("field array count", least=0)):
                aname = cur.next("array name")
                ncomp = cur.number("array ncomp", least=0)
                ntup = cur.number("array ntuples", least=0)
                cur.next("array dtype")
                vals = cur.block(ncomp * ntup, float, ("field value",))
                if aname == "ring_layout":
                    if vals.size != 2 or not np.all((vals == np.floor(vals)) & (vals > 0) & (vals <= nv)):
                        cur.error(f"ring_layout must hold 2 integers in 1..{nv}, got {vals.tolist()}")
                    ring_layout = (int(vals[0]), int(vals[1]))
        elif section == "CELL_DATA":
            count = cur.number("cell data count")
            if count != nf:
                cur.error(f"CELL_DATA count {count} != {nf} faces")
            cur.expect("FIELD")
            cur.next("field name")
            for _ in range(cur.number("field array count", least=0)):
                aname = cur.next("array name")
                ncomp = cur.number("array ncomp", least=1)
                ntup = cur.number("array ntuples")
                if ntup != nf:
                    cur.error(f"cell array {aname!r} has {ntup} tuples, mesh has {nf} faces")
                cur.next("array dtype")
                vals = cur.block(ncomp * nf, float, ("cell value",))
                cell_data[aname] = vals.reshape(nf, ncomp) if ncomp > 1 else vals
        else:
            cur.error(f"unknown section {section!r}")
    return verts, faces, regions, ring_layout, cell_data


def load_mesh(path, return_cell_data=False):
    """Read a mesh file written by :func:`save_mesh`.

    The file is read once. Each numeric section (coordinates, polygons,
    region labels, each field and cell-data array) is parsed as one array
    and checked as a whole: cell size 4, vertex indices in 0..nv-1, region
    labels in 0..3, ring_layout as 2 integers in 1..nv. A number is what
    Python's ``float()`` (``int()`` for polygons and labels) accepts. A bad
    or missing token raises ValueError naming the file and the line of the
    first bad token; a file that is not text, or a mesh that is not valid,
    names the file.

    With ``return_cell_data`` the result is ``(mesh, dict)`` where the dict
    holds any per-face arrays stored in the file: (n_faces,) for one
    component, (n_faces, k) for k.
    """
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not a text file: {exc}") from None
    verts, faces, regions, ring_layout, cell_data = _parse(path, text)
    try:
        mesh = QuadMesh(verts, faces, regions, ring_layout)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if return_cell_data:
        return mesh, cell_data
    return mesh
