"""Synthetic aorta-like ground-truth meshes with known geometry.

The centerline is piecewise: a straight ascending segment along +z, a
half-torus arch of radius ``arch_radius`` bending through the x-z plane, and
a straight descending segment along -z. Rings of ``circumferential`` vertices
are placed on circles normal to the centerline using rotation-minimizing
frames (double-reflection method), so rings never twist through the arch.
Setting ``arch_radius = descending_length = 0`` yields a straight cylinder.

An optional Gaussian bulge raises the ring radius around a chosen arc length,
standing in for an aneurysm of known size.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .quadmesh import QuadMesh

__all__ = [
    "PhantomSpec",
    "make_phantom",
    "centerline_length",
]


def _numbers(values):
    """Whether ``values`` are all real numbers and none a boolean, which float() would take."""
    return all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in values)


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters for a synthetic tube phantom.

    ``aneurysm`` is ``(center_arclength_mm, amplitude_mm, width_mm)``; the
    ring radius becomes ``r(s) = base + amplitude * exp(-(s-c)^2 / (2w^2))``.
    ``region_fractions`` are the three axial ring-fraction boundaries
    separating root / ascending / arch / descending labels.
    """

    circumferential: int = 78
    axial: int = 320
    base_radius: float = 15.0
    ascending_length: float = 60.0
    arch_radius: float = 30.0
    descending_length: float = 100.0
    aneurysm: Optional[tuple] = None
    region_fractions: tuple = (0.125, 0.4375, 0.625)
    seed: Optional[int] = None
    jitter: float = 0.0

    def __post_init__(self):
        if self.circumferential < 3 or self.axial < 2:
            raise ValueError("layout must have C >= 3 and A >= 2")
        if self.base_radius <= 0:
            raise ValueError("base_radius must be positive")
        if min(self.ascending_length, self.arch_radius, self.descending_length) < 0:
            raise ValueError("segment lengths must be nonnegative")
        if self.ascending_length + self.arch_radius + self.descending_length <= 0:
            raise ValueError("centerline has zero length")
        if self.aneurysm is not None:
            try:
                if not _numbers(self.aneurysm):
                    raise TypeError
                c, amp, w = (float(x) for x in self.aneurysm)
            except (TypeError, ValueError):
                raise ValueError(f"aneurysm must be [center, amplitude, width] in mm, got {self.aneurysm!r}") from None
            if w <= 0:
                raise ValueError("aneurysm width must be positive")
            object.__setattr__(self, "aneurysm", (c, amp, w))
        fr = tuple(float(f) for f in self.region_fractions)
        if len(fr) != 3 or not _numbers(self.region_fractions) or not (0.0 <= fr[0] <= fr[1] <= fr[2] <= 1.0):
            raise ValueError("region_fractions must be 3 nondecreasing values in [0, 1]")
        object.__setattr__(self, "region_fractions", fr)
        if self.jitter < 0:
            raise ValueError("jitter must be nonnegative")
        seed_ok = isinstance(self.seed, int) and not isinstance(self.seed, bool) and self.seed >= 0
        if self.seed is not None and not seed_ok:
            raise ValueError(f"seed must be null or an integer >= 0, got {self.seed!r}")


def centerline_length(spec):
    """Total centerline arc length in mm."""
    return spec.ascending_length + np.pi * spec.arch_radius + spec.descending_length


def _centerline(spec, s):
    """Points and unit tangents of the centerline at arc lengths ``s``."""
    s = np.asarray(s, dtype=np.float64)
    la, ra = spec.ascending_length, spec.arch_radius
    arch_len = np.pi * ra
    pts = np.zeros(s.shape + (3,))
    tan = np.zeros_like(pts)

    asc = s <= la
    pts[asc, 2] = s[asc]
    tan[asc, 2] = 1.0

    arch = (~asc) & (s <= la + arch_len)
    if arch.any():
        t = (s[arch] - la) / ra
        pts[arch, 0] = ra - ra * np.cos(t)
        pts[arch, 2] = la + ra * np.sin(t)
        tan[arch, 0] = np.sin(t)
        tan[arch, 2] = np.cos(t)

    desc = s > la + arch_len
    if desc.any():
        d = s[desc] - la - arch_len
        pts[desc, 0] = 2.0 * ra
        pts[desc, 2] = la - d
        tan[desc, 2] = -1.0

    return pts, tan


def _rotation_minimizing_normals(pts, tan):
    """Propagate an initial normal along the curve by double reflection."""
    n = len(pts)
    normals = np.zeros_like(pts)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ tan[0]) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    n0 = ref - (ref @ tan[0]) * tan[0]
    normals[0] = n0 / np.linalg.norm(n0)
    for i in range(n - 1):
        v1 = pts[i + 1] - pts[i]
        c1 = v1 @ v1
        rl = normals[i] - (2.0 / c1) * (v1 @ normals[i]) * v1
        tl = tan[i] - (2.0 / c1) * (v1 @ tan[i]) * v1
        v2 = tan[i + 1] - tl
        c2 = v2 @ v2
        if c2 < 1e-30:
            normals[i + 1] = rl
        else:
            normals[i + 1] = rl - (2.0 / c2) * (v2 @ rl) * v2
    return normals


def ring_radii(spec, s):
    """Ring radius at arc lengths ``s`` (base radius plus any bulge)."""
    s = np.asarray(s, dtype=np.float64)
    r = np.full_like(s, spec.base_radius)
    if spec.aneurysm is not None:
        c, amp, w = spec.aneurysm
        r = r + amp * np.exp(-((s - c) ** 2) / (2.0 * w * w))
    if np.any(r <= 0):
        raise ValueError("radius profile must stay positive along the centerline")
    return r


# Overflow from extreme sizes gives non-finite vertices, which QuadMesh rejects.
@np.errstate(over="ignore", invalid="ignore")
def make_phantom(spec):
    """Build the phantom tube mesh described by ``spec``.

    Faces wind so normals point outward; vertex ``a*C + c`` sits on ring ``a``
    at circumferential slot ``c``.
    """
    c_n, a_n = spec.circumferential, spec.axial
    total = centerline_length(spec)
    s = np.linspace(0.0, total, a_n)
    pts, tan = _centerline(spec, s)
    normals = _rotation_minimizing_normals(pts, tan)
    binorm = np.cross(tan, normals)
    radii = ring_radii(spec, s)

    phi = 2.0 * np.pi * np.arange(c_n) / c_n
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    # (A, C, 3): ring center + r * (cos(phi) N + sin(phi) B)
    verts = (
        pts[:, None, :]
        + radii[:, None, None] * (cos_p[None, :, None] * normals[:, None, :] + sin_p[None, :, None] * binorm[:, None, :])
    ).reshape(-1, 3)

    a_idx = np.repeat(np.arange(a_n - 1), c_n)
    c_idx = np.tile(np.arange(c_n), a_n - 1)
    c_next = (c_idx + 1) % c_n
    faces = np.stack(
        [
            a_idx * c_n + c_idx,
            a_idx * c_n + c_next,
            (a_idx + 1) * c_n + c_next,
            (a_idx + 1) * c_n + c_idx,
        ],
        axis=1,
    )

    bounds = [int(round(f * a_n)) for f in spec.region_fractions]
    ring_region = np.zeros(a_n, dtype=np.int8)
    ring_region[bounds[0]:] = 1
    ring_region[bounds[1]:] = 2
    ring_region[bounds[2]:] = 3
    regions = np.repeat(ring_region, c_n)

    if spec.jitter > 0.0:
        rng = np.random.default_rng(spec.seed)
        verts = verts + rng.normal(0.0, spec.jitter, size=verts.shape)

    return QuadMesh(verts, faces, regions, ring_layout=(c_n, a_n))
