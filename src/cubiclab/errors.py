"""Exception types shared across the package."""


class CubiclabError(Exception):
    """Base class for all package-specific errors."""


# --- flat surfaces -------------------------------------------------------

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


class NotNonsingular(CubiclabError):
    """A geodesic passes through a cone point where a nonsingular one is
    needed: a cylinder core, or one of the two curves of an intersection
    count."""


class NotCylindrical(CubiclabError):
    """The given curve class does not foliate a flat cylinder."""


class EpsTooLarge(CubiclabError):
    """The requested cut size does not fit in the clearance around a puncture."""


class AngleClash(CubiclabError):
    """A surgery produced a vertex orbit violating the cone-angle form."""


class TrivialClass(CubiclabError):
    """A combinatorial curve class simplified to the trivial loop."""


# --- PDE solver ----------------------------------------------------------

class NoSolution(CubiclabError):
    """The nonlinear solve cannot converge (e.g. incompatible data)."""


class SingularJacobian(CubiclabError):
    """The Newton linearization could not be solved."""


class NegativeBoundary(CubiclabError):
    """Boundary data for the gap equation must be nonnegative."""


class ProbeTooCloseToZero(CubiclabError):
    """A decay probe point sits too close to a zero of the differential."""


class NonpositiveRadius(CubiclabError):
    """A ball radius must be positive."""


class NegativeInput(CubiclabError):
    """A parameter restricted to nonnegative values was negative."""


# --- currents ------------------------------------------------------------

class ZeroSpectrum(CubiclabError):
    """A length spectrum with all entries zero cannot be projectivized."""


class NotConverged(CubiclabError):
    """A spectrum sequence did not settle within the declared thresholds."""


class MarkingMismatch(CubiclabError):
    """Spectra in a sequence do not share the same marking."""


class UnknownClass(CubiclabError):
    """A curve class id is not present in the marking."""


class OverlappingSupports(CubiclabError):
    """Flat-part and multicurve supports of a mixed structure overlap."""


# --- model surfaces ------------------------------------------------------

class OutOfDomain(CubiclabError):
    """A point lies outside a model surface's domain."""


class BadR(CubiclabError):
    """An annulus modulus parameter must satisfy R > 1."""


class BadParameters(CubiclabError):
    """Model-surface parameters outside their documented ranges."""


class UnsupportedCover(CubiclabError):
    """Only power-map covers between round models are supported."""


class IndeterminateSequence(CubiclabError):
    """A parameter sequence fits none of the supported limit cases."""


# --- cli -----------------------------------------------------------------

class ConfigError(CubiclabError):
    """An experiment configuration is malformed or references missing files."""
