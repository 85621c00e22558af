"""Template-to-patient aorta mesh fitting and downstream analysis.

Deforms a structured quad template mesh onto a target through the
exponential of a stationary velocity field (guaranteeing a fold-free,
diffeomorphic deformation), evaluates quad element quality, computes membrane
wall stress under pressure from equilibrium alone, and extracts clinical
measurements (regional maximum diameters, regional stress statistics).
"""

__version__ = "0.1.0"

from .clinical import (
    ClinicalReport,
    build_report,
    max_diameter_per_region,
    regional_stress_stats,
    ring_diameter,
    validate_report,
)
from .diffeo import DiffeoConfig, exp_vjp, exponentiate, jacobian_determinant, warp_vertices
from .fea import (
    MembraneModel,
    SolverError,
    StressField,
    mean_stress_error,
    pressure_nodal_forces,
    principal_stresses,
    solve_membrane_stress,
)
from .fitter import FitConfig, FitDivergence, FitResult, bounding_grid, fit_svf, upsample_svf
from .objective import (
    LossBreakdown,
    LossWeights,
    chamfer,
    loss_grad,
    region_mse,
    smoothness,
    total_loss,
    weighted_geo,
)
from .phantom import PhantomSpec, make_phantom
from .quadmesh import (
    QuadMesh,
    REGIONS,
    average_template,
    face_regions,
    load_mesh,
    rings,
    save_mesh,
    validate_topology,
)
from .quality import (
    ElementQuality,
    QualityReport,
    aspect_ratio,
    equiangle_skew,
    quad_angles,
    quality_report,
    scaled_jacobian,
    self_intersections,
)
from .volgrid import (
    GridGeom,
    VectorField3D,
    Volume3D,
    load_volume,
    save_volume,
    trilinear_sample,
    trilinear_sample_vjp,
)

__all__ = [
    "__version__",
    "GridGeom",
    "Volume3D",
    "VectorField3D",
    "trilinear_sample",
    "trilinear_sample_vjp",
    "save_volume",
    "load_volume",
    "QuadMesh",
    "REGIONS",
    "validate_topology",
    "average_template",
    "rings",
    "face_regions",
    "load_mesh",
    "save_mesh",
    "DiffeoConfig",
    "exponentiate",
    "warp_vertices",
    "jacobian_determinant",
    "exp_vjp",
    "LossWeights",
    "LossBreakdown",
    "region_mse",
    "weighted_geo",
    "smoothness",
    "total_loss",
    "loss_grad",
    "chamfer",
    "FitConfig",
    "FitResult",
    "FitDivergence",
    "fit_svf",
    "upsample_svf",
    "bounding_grid",
    "ElementQuality",
    "QualityReport",
    "quad_angles",
    "equiangle_skew",
    "aspect_ratio",
    "scaled_jacobian",
    "self_intersections",
    "quality_report",
    "MembraneModel",
    "StressField",
    "SolverError",
    "pressure_nodal_forces",
    "solve_membrane_stress",
    "principal_stresses",
    "mean_stress_error",
    "ClinicalReport",
    "ring_diameter",
    "max_diameter_per_region",
    "regional_stress_stats",
    "build_report",
    "validate_report",
    "PhantomSpec",
    "make_phantom",
]
