"""Exact symbolic computation of equivariant classes of coincident root
strata and the generalized Plucker formulas they encode."""

from .combinat import InputPartition, enumerate_partitions_no_ones, kostka_two_row, stirling_first
from .crs import ClassCache, PivotPolicy, crs_class, top_degree_class
from .exactalg import DPoly
from .plucker import plucker_formulas, plucker_value, predicted_leading, ym_class_closed_form
from .symfunc import SchurClass

__all__ = [
    "ClassCache",
    "DPoly",
    "InputPartition",
    "PivotPolicy",
    "SchurClass",
    "crs_class",
    "enumerate_partitions_no_ones",
    "kostka_two_row",
    "plucker_formulas",
    "plucker_value",
    "predicted_leading",
    "stirling_first",
    "top_degree_class",
    "ym_class_closed_form",
]

__version__ = "0.1.0"
