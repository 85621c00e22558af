"""Template-to-patient aorta mesh fitting and downstream analysis.

Deforms a structured quad template mesh onto a target through the
exponential of a stationary velocity field (guaranteeing a fold-free,
diffeomorphic deformation), evaluates quad element quality, computes membrane
wall stress under pressure from equilibrium alone, and extracts clinical
measurements (regional maximum diameters, regional stress statistics).
The package namespace holds only ``__version__``; import the submodules
(``aortafit.fitter``, ``aortafit.cli``, ...) directly.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
