"""Optimal quadrature for Fourier integrals on uniform grids.

Closed-form Sard-optimal weights for int_a^b e^{2 pi i omega x} phi(x) dx
over the Sobolev class with square-integrable first derivative, an
independent dense-solve oracle, Fourier-transform approximation from
samples, and a CT filtered back-projection pipeline built on top.
"""

from .grid import SampledFunction, UniformGrid
from .quadrature import (
    apply_weights,
    coefficient_matrix,
    error_norm,
    monomial_fourier_integral,
)
from .transform import (
    QuadratureErrorRecord,
    SpectrumSamples,
    error_sweep,
    forward_transform,
    inverse_transform,
    quadrature_error_monomial,
)

__all__ = [
    "QuadratureErrorRecord",
    "SampledFunction",
    "SpectrumSamples",
    "UniformGrid",
    "apply_weights",
    "coefficient_matrix",
    "error_norm",
    "error_sweep",
    "forward_transform",
    "inverse_transform",
    "monomial_fourier_integral",
    "quadrature_error_monomial",
]

__version__ = "0.1.0"
