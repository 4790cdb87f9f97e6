"""Planar predicates shared by the flat-surface modules."""

from __future__ import annotations


def cross(u, v) -> float:
    """The z-component u0 v1 - u1 v0 of the cross product of 2-vectors."""
    return float(u[0] * v[1] - u[1] * v[0])
