"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class WallcrossError(Exception):
    """Base class for all library errors."""


# geometry ------------------------------------------------------------------

class GeometryError(WallcrossError):
    pass


class MissingNDimCone(GeometryError):
    """The complex contains no cone of full dimension."""


class BadDivisorMeetsGoodCurve(GeometryError):
    """A one-dimensional stratum of good divisors lies on a bad divisor."""


class DisconnectedGoodBoundary(GeometryError):
    """The good part of the boundary of a stratum is disconnected."""


class NonUnimodularChart(GeometryError):
    """A chart transition matrix fails to be unimodular."""


class NotAdjacent(GeometryError):
    """The two maximal cones do not share an interior codimension-one face."""


class UnsupportedDimension(WallcrossError):
    """Planar enumeration machinery invoked on a complex of dimension != 2."""


# ring ----------------------------------------------------------------------

class RingError(WallcrossError):
    pass


class ConeMismatch(RingError):
    """Ring elements live in different chamber/cone coordinate systems."""


class NonNilpotentArgument(RingError):
    """exp requires every curve class in the maximal ideal."""


class NotUnipotent(RingError):
    """Inversion requires constant term 1."""


class TruncationError(RingError):
    """The truncation ideal does not have finite complement."""


# walls ---------------------------------------------------------------------

class WallError(WallcrossError):
    pass


class InadmissibleWallDirection(WallError):
    """Wall direction fails the stalkwise admissibility cases."""


class ClassInIdeal(WallError):
    """A count entry's curve class already lies in the truncation ideal."""


# broken lines --------------------------------------------------------------

class BrokenLineError(WallcrossError):
    pass


class NonGenericEndpoint(BrokenLineError):
    """Endpoint lies on a hyperplane of the relevant arrangement."""

    def __init__(self, message, hyperplane=None):
        super().__init__(message)
        self.hyperplane = hyperplane


class InadmissibleType(BrokenLineError):
    """Decorated type fails decoration admissibility."""


class EndpointOutsideFamily(BrokenLineError):
    """Requested endpoint is not in the interior of the type's image cell."""


# consistency ---------------------------------------------------------------

class ConsistencyError(WallcrossError):
    pass


class NonConvergent(ConsistencyError):
    """Scattering completion exceeded the requested weight bound."""


class BoundaryJoint(ConsistencyError):
    """Localization requested at a boundary joint."""


# tropical ------------------------------------------------------------------

class TropicalError(WallcrossError):
    pass


class Unrealizable(TropicalError):
    """Universal family of the type is empty (or has empty interior)."""


class RankDeficient(TropicalError):
    """Gluing difference map is not surjective over the rationals."""


# -- command line -------------------------------------------------------------

class NonPlanarSlice(WallcrossError):
    """Rendering requires a two-dimensional slice."""
