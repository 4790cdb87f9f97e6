"""Flat metrics with cone angles 2*pi*(1 + k/3) as triangle complexes."""

from .surface import (
    ConePoint,
    PlanarIsometry,
    TriangulatedFlatSurface,
    area,
    gauss_bonnet_defect,
)
from .geodesics import (
    ConeVisit,
    GeodesicRepresentative,
    HomotopyClassPath,
    tighten_geodesic,
)

__all__ = [
    "ConePoint",
    "PlanarIsometry",
    "TriangulatedFlatSurface",
    "area",
    "gauss_bonnet_defect",
    "ConeVisit",
    "GeodesicRepresentative",
    "HomotopyClassPath",
    "tighten_geodesic",
]
