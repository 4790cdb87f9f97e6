"""Planar predicates shared by the flat-surface modules."""

from __future__ import annotations


def cross(u, v) -> float:
    """The z-component u0 v1 - u1 v0 of the cross product of 2-vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


def turn(o, a, b) -> float:
    """cross(a - o, b - o): positive when b lies left of the ray o -> a."""
    return float((a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0]))
