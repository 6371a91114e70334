"""Gauge sector: SU(3) utilities, synthetic ensembles, smearing, compression."""

from .compression import (
    compress8,
    compress12,
    compression_reals,
    reconstruct8,
    reconstruct12,
)
from .generate import disordered_field, free_field, hot_start
from .io import gauge_fingerprint, load_gauge, load_spinor, save_gauge, save_spinor
from .loops import average_plaquette, clover_leaves, field_strength, plaquette_field
from .smear import ape_smear, staple_sum
from .su3 import (
    dagger,
    gell_mann,
    project_su3,
    random_hermitian_traceless,
    random_su3,
    su3_exp,
    traceless_antihermitian,
)

__all__ = [
    "compress8",
    "compress12",
    "compression_reals",
    "reconstruct8",
    "reconstruct12",
    "disordered_field",
    "gauge_fingerprint",
    "load_gauge",
    "load_spinor",
    "save_gauge",
    "save_spinor",
    "free_field",
    "hot_start",
    "average_plaquette",
    "clover_leaves",
    "field_strength",
    "plaquette_field",
    "ape_smear",
    "staple_sum",
    "dagger",
    "gell_mann",
    "project_su3",
    "random_hermitian_traceless",
    "random_su3",
    "su3_exp",
    "traceless_antihermitian",
]
