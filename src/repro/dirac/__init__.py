"""The lattice Dirac operator: gammas, Wilson-Clover, red-black."""

from .clover import CloverTerm
from .even_odd import SchurOperator, SchurReference
from .gamma import NS, chirality_slices, gamma5, gamma_matrices, projectors, sigma_munu
from .projection import project, projected_hop, reconstruct
from .stencil import StencilOperator
from .wilson import WilsonCloverOperator

__all__ = [
    "CloverTerm",
    "SchurOperator",
    "SchurReference",
    "NS",
    "chirality_slices",
    "gamma5",
    "gamma_matrices",
    "projectors",
    "sigma_munu",
    "project",
    "projected_hop",
    "reconstruct",
    "StencilOperator",
    "WilsonCloverOperator",
]
