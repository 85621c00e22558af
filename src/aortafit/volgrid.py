"""Regular 3D voxel grids.

Scalar volumes and 3-vector fields on a regular grid, trilinear sampling with
edge clamping and its adjoint, and the volume file format.

Conventions
-----------
* Voxel index ``(i, j, k)`` runs along array axes 0, 1, 2. A continuous voxel
  coordinate ``p`` maps to world mm as ``world = origin + p * spacing``;
  ``origin`` is the center of voxel (0, 0, 0).
* Vector fields store components in voxel units: one unit of component ``a``
  is one voxel step along axis ``a``. Conversion to mm multiplies by spacing.
* Sampling outside the grid clamps to the boundary face (edge padding), so
  every sample is total.
* Sampling at fixed points is one sparse linear operator W
  (:class:`TrilinearSampler`, int32 indices): values are ``W @ field``, the
  adjoint in the field values is ``W.T @ cot``, and the derivatives in the
  point positions come from W's slope matrices, built only when asked for,
  on the rows asked for, and zero along clamped axes (``interior``).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "GridGeom",
    "Volume3D",
    "VectorField3D",
    "TrilinearSampler",
    "trilinear_sample",
    "save_volume",
    "load_volume",
]


@dataclass(frozen=True)
class GridGeom:
    """Geometry of a regular voxel grid: dims (H, W, D), mm spacing, mm origin."""

    dims: tuple
    spacing: tuple = (1.0, 1.0, 1.0)
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        spacing = tuple(float(s) for s in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(dims) != 3 or len(spacing) != 3 or len(origin) != 3:
            raise ValueError("dims, spacing, origin must each have 3 entries")
        if any(d < 2 for d in dims):
            raise ValueError(f"grid dims must be >= 2 per axis, got {dims}")
        if not all(0 < s < math.inf for s in spacing):
            raise ValueError(f"grid spacing must be finite and > 0 per axis, got {spacing}")
        if not all(math.isfinite(o) for o in origin):
            raise ValueError(f"grid origin must be finite, got {origin}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    def world_to_voxel(self, points_mm):
        """Map mm positions to continuous voxel coordinates."""
        pts = np.asarray(points_mm, dtype=float)
        # A point too far out for the spacing overflows to inf, which lies
        # outside every grid.
        with np.errstate(over="ignore"):
            return (pts - np.asarray(self.origin)) / np.asarray(self.spacing)


def _check_data(geom, data, ncomp):
    expect = geom.dims if ncomp == 1 else geom.dims + (3,)
    if data.shape != expect:
        raise ValueError(f"data shape {data.shape} does not match grid {expect}")


@dataclass(frozen=True)
class Volume3D:
    """Scalar volume on a regular grid."""

    geom: GridGeom
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _check_data(self.geom, data, 1)
        object.__setattr__(self, "data", data)


@dataclass(frozen=True)
class VectorField3D:
    """3-vector per voxel, components in voxel units along the matching axis."""

    geom: GridGeom
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        _check_data(self.geom, data, 3)
        if not np.all(np.isfinite(data)):
            raise ValueError("vector field contains non-finite components")
        object.__setattr__(self, "data", data)

    def max_abs(self):
        """Largest per-axis absolute component, in voxel units."""
        return float(np.max(np.abs(self.data))) if self.data.size else 0.0


# Cell corners (di, dj, dk) in C order, so each row's column indices ascend.
_CORNER = np.indices((2, 2, 2)).reshape(3, 8)
# Per axis, the (2, 8) 0/1 matrix expanding a (1 - frac, frac) factor pair to
# the 8 corners, and the corners' +-1 slopes: products with them are exact.
_SELECT = tuple(np.stack([1 - c, c]).astype(np.float64) for c in _CORNER)
_SIGN = np.where(_CORNER, 1.0, -1.0)


class TrilinearSampler:
    """Clamped trilinear interpolation at fixed points, as sparse matrices.

    ``weights`` is the CSR matrix W (N points x voxels, 8 nonzeros per row,
    int32 indices) holding each point's cell-corner weights, so sampling a
    field is ``W @ field`` and the adjoint in the field values is
    ``W.T @ cot``. ``slopes(rows)`` builds the three matrices dW / d(point
    coordinate along axis a) for a subset of the points on each call
    (forward-only sampling never pays for them); they hold W's columns of
    those rows, in W's order. ``interior`` (N, 3)
    is False where a coordinate was clamped: the sampled values do not move
    with that coordinate, whatever its slope matrix holds.
    """

    def __init__(self, dims, points):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("sample points contain non-finite coordinates")
        self.dims = tuple(dims)
        nvox = math.prod(self.dims)
        if nvox >= 2**31:
            raise ValueError(f"grid {self.dims} has {nvox} voxels, over the int32 index range")
        hi = np.asarray(self.dims, dtype=np.float64) - 1.0
        self.interior = (pts > 0.0) & (pts < hi)
        p = np.clip(pts, 0.0, hi)
        i0 = np.minimum(p.astype(np.int32), np.asarray(self.dims, dtype=np.int32) - 2)  # p >= 0: truncation floors
        frac = p - i0

        # A corner's weight is the product of one factor per axis: 1 - frac
        # on the lower side, frac on the upper, multiplied as (wx * wy) * wz.
        _, d1, d2 = self.dims
        base = (i0[:, 0] * d1 + i0[:, 1]) * d2 + i0[:, 2]
        cols = base[:, None] + ((_CORNER[0] * d1 + _CORNER[1]) * d2 + _CORNER[2]).astype(np.int32)
        px, py, pz = (np.stack([1.0 - frac[:, a], frac[:, a]], axis=1) for a in range(3))
        wxy = (px @ _SELECT[0]) * (py @ _SELECT[1])
        wz = pz @ _SELECT[2]

        ptr = np.arange(0, 8 * len(pts) + 1, 8, dtype=np.int32)
        self.weights = sp.csr_array(((wxy * wz).ravel(), cols.ravel(), ptr), shape=(len(pts), nvox))
        self._pairs = (px, py, pz)

    def slopes(self, rows):
        """dW / d(point coordinate along axis a) for a = 0, 1, 2, on the points ``rows``, built anew on each call."""
        px, py, pz = (np.take(p, rows, axis=0) for p in self._pairs)
        wz = pz @ _SELECT[2]
        # W's products with one factor replaced by its +-1 slope (0 comes out +0.0).
        data = ((py @ (_SELECT[1] * _SIGN[0])) * wz, (px @ (_SELECT[0] * _SIGN[1])) * wz,
                ((px @ _SELECT[0]) * (py @ _SELECT[1])) * _SIGN[2])
        cols = np.take(self.weights.indices.reshape(-1, 8), rows, axis=0).ravel()
        ptr = np.arange(0, len(cols) + 1, 8, dtype=np.int32)
        return tuple(sp.csr_array((d.ravel(), cols, ptr), shape=(len(px), self.weights.shape[1])) for d in data)

    def sample(self, data):
        """Values at the points: (N,) for a scalar grid, (N, 3) for a vector grid."""
        return self.weights @ data.reshape((-1,) + data.shape[3:])


def trilinear_sample(fld, points):
    """Sample a volume or vector field at continuous voxel coordinates.

    Parameters
    ----------
    fld : Volume3D or VectorField3D
    points : (N, 3) or (3,) array of continuous voxel coordinates. Points
        outside the grid are clamped to the boundary face.

    Returns
    -------
    (N,) scalars or (N, 3) vectors; a single point returns a scalar / (3,).
    """
    pts = np.asarray(points, dtype=np.float64)
    out = TrilinearSampler(fld.geom.dims, pts).sample(fld.data)
    return out[0] if pts.ndim == 1 else out


# ---------------------------------------------------------------------------
# File format: structured-text header + raw little-endian payload.
# ---------------------------------------------------------------------------

_MAGIC = "aortafit volume 1"
_DTYPES = {"float64": "<f8", "float32": "<f4"}


def _header_path(path):
    return path if str(path).endswith(".hdr") else str(path) + ".hdr"


def save_volume(fld, path):
    """Write a Volume3D or VectorField3D as a header + raw file pair.

    ``path`` names the header file (``.hdr`` appended if missing); the payload
    goes next to it with the same stem and a ``.raw`` suffix.
    """
    hdr = _header_path(path)
    raw = os.path.splitext(hdr)[0] + ".raw"
    geom = fld.geom
    ncomp = 1 if fld.data.ndim == 3 else 3
    lines = [
        _MAGIC,
        "dims: {} {} {}".format(*geom.dims),
        "spacing: {!r} {!r} {!r}".format(*geom.spacing),
        "origin: {!r} {!r} {!r}".format(*geom.origin),
        "dtype: float64",
        "byteorder: little",
        f"components: {ncomp}",
        f"data: {os.path.basename(raw)}",
    ]
    with open(hdr, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    fld.data.astype("<f8").tofile(raw)
    return hdr


def load_volume(path):
    """Read a header + raw pair written by :func:`save_volume`.

    Returns a Volume3D (components: 1) or VectorField3D (components: 3).
    """
    hdr = _header_path(path)
    fields = {}
    try:
        with open(hdr) as fh:
            first = fh.readline().rstrip("\n")
            if first != _MAGIC:
                raise ValueError(f"{hdr}: not a volume header (bad magic line {first!r})")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                if ":" not in line:
                    raise ValueError(f"{hdr}:{lineno}: expected 'key: value', got {line!r}")
                key, val = line.split(":", 1)
                fields[key.strip()] = val.strip()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{hdr}: not a text header ({exc})") from None
    try:
        dims = tuple(int(x) for x in fields["dims"].split())
        spacing = tuple(float(x) for x in fields["spacing"].split())
        origin = tuple(float(x) for x in fields["origin"].split())
        dtype = fields["dtype"]
        byteorder = fields["byteorder"]
        ncomp = int(fields["components"])
        dataname = fields["data"]
    except KeyError as exc:
        raise ValueError(f"{hdr}: missing header field {exc}") from None
    except ValueError as exc:  # a field that is not a number
        raise ValueError(f"{hdr}: {exc}") from None
    if byteorder != "little":
        raise ValueError(f"{hdr}: unsupported byte order {byteorder!r}")
    if dtype not in _DTYPES:
        raise ValueError(f"{hdr}: unsupported dtype {dtype!r}")
    if ncomp not in (1, 3):
        raise ValueError(f"{hdr}: components must be 1 or 3, got {ncomp}")
    try:
        geom = GridGeom(dims, spacing, origin)
    except ValueError as exc:
        raise ValueError(f"{hdr}: {exc}") from None
    raw = os.path.join(os.path.dirname(hdr) or ".", dataname)
    count = math.prod(dims) * ncomp
    data = np.fromfile(raw, dtype=_DTYPES[dtype])
    if data.size != count:
        raise ValueError(f"{raw}: expected {count} values, found {data.size}")
    if ncomp == 1:
        return Volume3D(geom, data.reshape(dims))
    return VectorField3D(geom, data.reshape(dims + (3,)))
