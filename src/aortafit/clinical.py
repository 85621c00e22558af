"""Clinical measurements over corresponded meshes: diameters and stress stats.

Cross-sections are the structured rings of the template layout, so the same
ring index means the same anatomical station on every fitted mesh. A ring's
diameter is the equivalent-circle value, twice the mean distance from ring
vertices to the ring centroid (a max-chord variant is available); regional
maxima are taken over the rings a region owns. Stress statistics aggregate
the maximum principal Cauchy stress per face region.

The report is the versioned dict written as ``report.json``;
``validate_report`` checks its schema and its positive diameters and peaks
at or above the means, so pipeline outputs can be verified mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadmesh import REGIONS, face_regions, majority_region, rings

__all__ = [
    "SCHEMA_VERSION",
    "ReportConfig",
    "all_ring_diameters",
    "ring_region_codes",
    "max_diameter_per_region",
    "regional_stress_stats",
    "build_report",
    "validate_report",
]

SCHEMA_VERSION = 1

# Rings within this relative distance of a region's largest diameter tie for it.
_PLATEAU_RTOL = 1e-12


def all_ring_diameters(mesh, method="equivalent"):
    """Diameter of every ring (mm), shape (A,).

    ``equivalent``: 2 * mean distance to the ring centroid (exact for a
    regular polygon inscribed in a circle). ``chord``: maximum pairwise
    vertex distance.
    """
    v = mesh.vertices[rings(mesh)]  # (A, C, 3)
    radii = np.linalg.norm(v - v.mean(axis=1, keepdims=True), axis=2)
    if np.any(radii.max(axis=1) == 0):
        raise ValueError("degenerate ring: all vertices coincide")
    if method == "equivalent":
        return 2.0 * radii.mean(axis=1)
    if method == "chord":
        diff = v[:, :, None, :] - v[:, None, :, :]
        return np.sqrt(np.einsum("aijd,aijd->aij", diff, diff).max(axis=(1, 2)))
    raise ValueError(f"unknown diameter method {method!r}")


def ring_region_codes(mesh):
    """Region code per ring: majority of vertex labels, ties to the lowest code."""
    return majority_region(mesh.regions[rings(mesh)])


def max_diameter_per_region(mesh, method="equivalent"):
    """Per-region maximum ring diameter: {name: (diameter_mm, ring_index)}.

    The ring is the lowest one within a relative ``_PLATEAU_RTOL`` of the
    maximum, so a plateau of rings equal up to rounding (a straight or
    uniform segment) reports its first ring wherever the mesh is moved.
    """
    diams = all_ring_diameters(mesh, method=method)
    codes = ring_region_codes(mesh)
    out = {}
    for code, name in enumerate(REGIONS):
        mask = codes == code
        if not mask.any():
            raise ValueError(f"region {name!r} owns no rings")
        idx = np.nonzero(mask)[0]
        top = diams[idx].max()
        best = idx[np.argmax(diams[idx] >= top - _PLATEAU_RTOL * top)]
        out[name] = (float(top), int(best))
    return out


def regional_stress_stats(mesh, field, peak_rule="max", percentile=99.0):
    """Mean and peak maximum-principal stress per region: {name: (mean, peak)} in kPa.

    ``peak_rule`` is "max" or "percentile" (then ``percentile`` applies),
    guarding against single-element outliers when requested.
    """
    fr = face_regions(mesh)
    sigma1 = field.principal[:, 0]
    if len(sigma1) != len(mesh.faces):
        raise ValueError("stress field does not match the mesh face count")
    out = {}
    for code, name in enumerate(REGIONS):
        vals = sigma1[fr == code]
        if vals.size == 0:
            raise ValueError(f"region {name!r} has no faces")
        if peak_rule == "max":
            peak = float(vals.max())
        elif peak_rule == "percentile":
            peak = float(np.percentile(vals, percentile))
        else:
            raise ValueError(f"unknown peak rule {peak_rule!r}")
        out[name] = (float(vals.mean()), peak)
    return out


@dataclass(frozen=True)
class ReportConfig:
    """Report settings: ring ``diameter_method`` and regional ``peak_rule``
    (``percentile`` applies to the "percentile" rule, but is always checked)."""

    diameter_method: str = "equivalent"
    peak_rule: str = "max"
    percentile: float = 99.0

    def __post_init__(self):
        if self.diameter_method not in ("equivalent", "chord"):
            raise ValueError(f"diameter_method must be 'equivalent' or 'chord', got {self.diameter_method!r}")
        if self.peak_rule not in ("max", "percentile"):
            raise ValueError(f"peak_rule must be 'max' or 'percentile', got {self.peak_rule!r}")
        if not 0 <= self.percentile <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {self.percentile}")


def build_report(mesh, stress, config=ReportConfig(), provenance=None, reference_mesh=None):
    """The clinical report dict of one mesh and its stress field, as
    ``report.json`` holds it; ``validate_report`` checks it.

    ``config`` is a :class:`ReportConfig`; ``provenance`` (such as ``mesh``,
    ``config_hash`` and ``tool_version``) is copied into the report as given.
    With ``reference_mesh`` given (a corresponded ground-truth mesh), each
    region also reports the absolute diameter error against it.
    """
    method = config.diameter_method
    diam = max_diameter_per_region(mesh, method=method)
    stats = regional_stress_stats(mesh, stress, peak_rule=config.peak_rule, percentile=config.percentile)
    ref_diam = max_diameter_per_region(reference_mesh, method=method) if reference_mesh is not None else None

    regions = {}
    for name in REGIONS:
        d, ring_idx = diam[name]
        mean_s, peak_s = stats[name]
        entry = {
            "max_diameter_mm": d,
            "ring_index": ring_idx,
            "mean_sigma1_kpa": mean_s,
            "peak_sigma1_kpa": peak_s,
        }
        if ref_diam is not None:
            entry["diameter_error_mm"] = abs(d - ref_diam[name][0])
        regions[name] = entry

    return {
        "schema_version": SCHEMA_VERSION,
        "regions": regions,
        "pressure_kpa": float(stress.pressure),
        "thickness_mm": float(stress.thickness),
        "provenance": dict(provenance or {}),
    }


_REGION_KEYS = {"max_diameter_mm", "ring_index", "mean_sigma1_kpa", "peak_sigma1_kpa"}


def validate_report(data):
    """Check a report dict against the schema; raises ValueError on violations."""
    if not isinstance(data, dict):
        raise ValueError("report must be a dict")
    missing = {"schema_version", "regions", "pressure_kpa", "thickness_mm", "provenance"} - set(data)
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {data['schema_version']!r}")
    if set(data["regions"]) != set(REGIONS):
        raise ValueError(f"report regions {sorted(data['regions'])} != {sorted(REGIONS)}")
    for name, entry in data["regions"].items():
        missing = _REGION_KEYS - set(entry)
        if missing:
            raise ValueError(f"region {name!r} missing keys: {sorted(missing)}")
        if not entry["max_diameter_mm"] > 0:
            raise ValueError(f"region {name!r} diameter must be positive")
        if entry["peak_sigma1_kpa"] < entry["mean_sigma1_kpa"]:
            raise ValueError(f"region {name!r} peak below mean")
    numbers = [data["pressure_kpa"], data["thickness_mm"]]
    numbers += [value for entry in data["regions"].values() for value in entry.values()]
    if not np.isfinite(numbers).all():
        raise ValueError("report numbers must be finite")
    if not isinstance(data["provenance"], dict):
        raise ValueError("provenance must be a dict")
