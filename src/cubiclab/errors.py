"""Exception types shared across the package.

Which failure gets which class: a wrong argument of a caller (out of range,
of the wrong shape, naming what is not there, or a file that cannot be read,
parsed or built) raises ``BadParameters`` naming the argument and its value;
a malformed command-line config raises ``ConfigError``; a surface that fails
validation raises one of the four classes the triangle surgery tells apart;
a computation that fails on valid arguments raises the class naming that
failure.  Internal invariants that no argument can break stay builtin.
"""


class CubiclabError(Exception):
    """Base class for all package-specific errors."""


class BadParameters(CubiclabError, ValueError):
    """A caller's argument is wrong; the message names it and its value."""


class ConfigError(CubiclabError):
    """A config is not a JSON object, lacks a key or has a wrong value."""


class EdgeLengthMismatch(CubiclabError):
    """Paired edge slots have different Euclidean lengths."""


class BadConeAngle(CubiclabError):
    """A vertex-orbit angle is not of the form 2*pi*(1 + k/3), k >= -2."""


class NegativeOrderAtInterior(CubiclabError):
    """A cone order k < 0 occurs at a vertex orbit not marked as a puncture."""


class NonInvolutiveGluing(CubiclabError):
    """The edge pairing is not a fixed-point-free involution, or the stored
    isometries are inconsistent with the paired edge endpoints."""


class NoConvergence(CubiclabError):
    """An iteration budget was exhausted before the requested tolerance."""


class SingularJacobian(CubiclabError):
    """The Newton linearization could not be solved."""


class NotConverged(CubiclabError):
    """A spectrum sequence did not settle within the declared thresholds."""


class NotNonsingular(CubiclabError):
    """A geodesic passes through a cone point where a nonsingular one is
    needed: a cylinder core, or one curve of an intersection count."""


class NotCylindrical(CubiclabError):
    """The given curve class does not foliate a flat cylinder."""


class TrivialClass(CubiclabError):
    """A combinatorial curve class simplified to the trivial loop."""


class AngleClash(CubiclabError):
    """A surgery produced a vertex orbit violating the cone-angle form."""


class IndeterminateSequence(CubiclabError):
    """A parameter sequence fits none of the supported limit cases."""
