"""Volumes of hyperbolic manifolds with geodesic boundary.

Evaluates the per-orthogeodesic volume kernel in any dimension, sums
it over orthospectra, and computes volume lower bounds from boundary
area.  See the README for the command-line interface.
"""

from .bounds import (
    BoundResult,
    collar_volume_factor,
    power_law_floor,
    volume_bound,
)
from .inner_kernel import inner_kernel
from .quadrature import NonConvergenceError
from .spectrum import SpectrumFormatError, parse_spectrum, spectrum_volume
from .volume_kernel import KernelValue, small_length_constant, volume_kernel

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "KernelValue",
    "NonConvergenceError",
    "SpectrumFormatError",
    "collar_volume_factor",
    "inner_kernel",
    "parse_spectrum",
    "power_law_floor",
    "small_length_constant",
    "spectrum_volume",
    "volume_bound",
    "volume_kernel",
]
