"""Truncated monoid ring of monomials t^A z^m with exact rational coefficients.

A monomial couples a curve class A (vector over the curve-class monoid) with
a lattice exponent m in the chart of a maximal cone.  Everything is computed
modulo a monomial truncation ideal with finite complement, which makes the
augmentation ideal nilpotent and all exponential / inverse series finite.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    ConeMismatch,
    NonNilpotentArgument,
    NotUnipotent,
    TruncationError,
)

CurveClass = tuple[int, ...]
Exponent = tuple[int, ...]
TermKey = tuple[CurveClass, Exponent]
Coefficient = int | Fraction


@dataclass(frozen=True)
class Truncation:
    """Monomial truncation ideal in the curve-class monoid.

    Either a degree cutoff (positive weight vector and bound: A is truncated
    when weights·A exceeds the bound) or an explicit list of monomial ideal
    generators.  Construction verifies that the complement of the ideal in
    the monoid is finite (equivalently, each coordinate axis eventually lands
    in the ideal).
    """

    curve_rank: int
    weights: tuple[int, ...] | None = None
    bound: int | None = None
    generators: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if (self.weights is None) == (self.generators is None):
            raise TruncationError(
                "exactly one of weights/generators must be given")
        if self.weights is not None:
            if len(self.weights) != self.curve_rank:
                raise TruncationError("weight vector length != curve_rank")
            if any(w <= 0 for w in self.weights):
                raise TruncationError("weights must be positive")
            if self.bound is None or self.bound < 0:
                raise TruncationError("degree cutoff needs a bound >= 0")
        else:
            gens = self.generators
            if any(len(g) != self.curve_rank for g in gens):
                raise TruncationError("generator length != curve_rank")
            if any(all(x == 0 for x in g) for g in gens):
                raise TruncationError("zero generator would truncate the unit")
            if any(min(g) < 0 for g in gens):
                raise TruncationError("generators must be nonnegative")
            for i in range(self.curve_rank):
                if not any(all(g[j] == 0 for j in range(self.curve_rank)
                               if j != i) and g[i] > 0 for g in gens):
                    raise TruncationError(
                        "infinite complement: axis %d never truncated" % i)

    @classmethod
    def degree(cls, curve_rank: int, bound: int,
               weights: Sequence[int] | None = None) -> "Truncation":
        w = tuple(weights) if weights is not None else (1,) * curve_rank
        return cls(curve_rank=curve_rank, weights=w, bound=bound)

    @classmethod
    def from_generators(cls, curve_rank: int,
                        generators: Iterable[Sequence[int]]) -> "Truncation":
        return cls(curve_rank=curve_rank,
                   generators=tuple(integer_vector(g) for g in generators))

    def in_ideal(self, A: Sequence[int]) -> bool:
        if len(A) != self.curve_rank:
            raise TruncationError("curve class length != curve_rank")
        if self.weights is not None:
            return sum(w * a for w, a in zip(self.weights, A)) > self.bound
        return any(all(a >= g for a, g in zip(A, gen))
                   for gen in self.generators)

    def weight_of(self, A: Sequence[int]) -> int:
        """Ad-hoc grading used for order-by-order algorithms."""
        if self.weights is not None:
            return sum(w * a for w, a in zip(self.weights, A))
        return sum(A)

    def nilpotent(self, A: Sequence[int]) -> bool:
        """Whether t^A is nilpotent modulo the ideal: A has positive weight
        under a degree cutoff, and is nonnegative and nonzero under
        generators.  A series in such classes is finite, and capping a
        product at a weight (``_product_by_exponent``) drops no term that a
        later product could bring back below the cap."""
        if self.weights is None and min(A) < 0:
            return False
        return self.weight_of(A) > 0

    def max_weight(self) -> int:
        """A weight beyond which every class lies in the ideal."""
        if self.weights is not None:
            return self.bound
        return sum(max(g[i] for g in self.generators)
                   for i in range(self.curve_rank))


class RingElement:
    """Finite rational combination of monomials t^A z^m in one chart.

    Immutable by convention: all operations return fresh elements.  Terms
    with curve class inside the truncation ideal are dropped on construction,
    zero coefficients are never stored, and every stored coefficient is an
    ``int`` (never a ``bool``) or a ``Fraction`` whose denominator is greater
    than 1, so integral arithmetic never builds a ``Fraction``.
    """

    __slots__ = ("terms", "cone", "trunc", "n", "_powers", "_weight_order")

    def __init__(self, terms: Mapping[TermKey, Coefficient], cone,
                 trunc: Truncation, n: int):
        clean: dict[TermKey, Coefficient] = {}
        for (A, m), c in terms.items():
            A = tuple(int(x) for x in A)
            m = tuple(int(x) for x in m)
            if len(m) != n:
                raise ValueError("exponent length != chart dimension")
            c = _coeff(c)
            if c == 0 or trunc.in_ideal(A):
                continue
            clean[(A, m)] = c
        self.terms = clean
        self.cone = cone
        self.trunc = trunc
        self.n = n
        self._powers: dict[int, RingElement] | None = None
        self._weight_order: list | None = None

    @classmethod
    def _make(cls, terms: dict[TermKey, Coefficient], cone, trunc: Truncation,
              n: int) -> "RingElement":
        """An element from computed terms, without re-checking their keys.

        Every key must already be a pair of int tuples of the right lengths
        with its class outside the ideal, and every coefficient an int or a
        Fraction; zeros are dropped and coefficients put in stored form.
        """
        e = object.__new__(cls)
        e.terms = {k: c if type(c) is int or c.denominator != 1
                   else c.numerator for k, c in terms.items() if c}
        e.cone = cone
        e.trunc = trunc
        e.n = n
        e._powers = None
        e._weight_order = None
        return e

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, cone, trunc: Truncation, n: int) -> "RingElement":
        return cls._make({}, cone, trunc, n)

    @classmethod
    def one(cls, cone, trunc: Truncation, n: int) -> "RingElement":
        # a valid truncation never contains the zero class
        key = ((0,) * trunc.curve_rank, (0,) * n)
        return cls._make({key: 1}, cone, trunc, n)

    @classmethod
    def monomial(cls, A: Sequence[int], m: Sequence[int], coeff, cone,
                 trunc: Truncation) -> "RingElement":
        return cls({(tuple(A), tuple(m)): coeff}, cone, trunc, len(tuple(m)))

    # -- basic protocol -----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.cone == other.cone
                and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.cone, self.n,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "RingElement(0)"
        bits = []
        for (A, m), c in self.sorted_terms():
            bits.append(f"{c}*t^{list(A)}*z^{list(m)}")
        return "RingElement(" + " + ".join(bits) + ")"

    def sorted_terms(self):
        return sorted(self.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        key = ((0,) * self.trunc.curve_rank, (0,) * self.n)
        return self.terms == {key: 1}

    def constant_coefficient(self) -> Coefficient:
        key = ((0,) * self.trunc.curve_rank, (0,) * self.n)
        return self.terms.get(key, 0)

    def coefficient(self, A: Sequence[int], m: Sequence[int]) -> Coefficient:
        return self.terms.get((tuple(A), tuple(m)), 0)

    def _by_weight(self) -> list:
        """The terms as (weight, A, m, c), lightest first, for a degree
        truncation; built once and kept on the (immutable) element."""
        order = self._weight_order
        if order is None:
            weights = self.trunc.weights
            order = sorted(((sum(map(operator.mul, weights, A)), A, m, c)
                            for (A, m), c in self.terms.items()),
                           key=operator.itemgetter(0))
            self._weight_order = order
        return order

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "RingElement") -> "RingElement":
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return RingElement._make(terms, self.cone, self.trunc, self.n)

    def sub(self, other: "RingElement") -> "RingElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "RingElement":
        c = _coeff(c)
        return RingElement._make({k: v * c for k, v in self.terms.items()},
                                 self.cone, self.trunc, self.n)

    def mul(self, other: "RingElement") -> "RingElement":
        self._check_compatible(other)
        return _product_by_exponent(self, lambda _m: other)

    def pow_nonneg(self, k: int) -> "RingElement":
        """``pow_int(k)`` for k >= 0; a negative k is a ``ValueError``."""
        if k < 0:
            raise ValueError(f"pow_nonneg needs an exponent >= 0, got {k}")
        return self.pow_int(k)

    def pow_int(self, k: int) -> "RingElement":
        """Integer power; negative powers require a unipotent element.

        Each power is computed once (``_power``) and kept on the
        (immutable) element, except f^1, which is the element itself: a
        memo holding it would be a reference cycle, freed only by the
        cyclic collector.  A missing f^k is one product of its neighbour
        f^(k-1) (f^(k+1) for k < -1); the powers from f^(+-2) up to that
        neighbour are made sure of first, in order, so that filling a
        long chain never nests calls.
        """
        if k == 1:
            return self
        if self._powers is None:
            self._powers = {}
        power = self._powers.get(k)
        if power is None:
            step = 1 if k >= 0 else -1
            for j in range(2 * step, k, step):
                self.pow_int(j)
            power = self._powers[k] = self._power(k)
        return power

    def _power(self, k: int) -> "RingElement":
        """f^k for k != 1: one for 0, ``invert`` for -1, else one product
        with the kept neighbour toward f^1 (k > 1) or f^-1 (k < -1)."""
        if k == 0:
            return RingElement.one(self.cone, self.trunc, self.n)
        if k == -1:
            return invert(self)
        if k > 1:
            return self.pow_int(k - 1).mul(self)
        return self.pow_int(k + 1).mul(self.pow_int(-1))

    def _check_compatible(self, other: "RingElement"):
        if self.cone != other.cone:
            raise ConeMismatch(
                f"cone ids differ: {self.cone!r} vs {other.cone!r}")
        if self.n != other.n or self.trunc != other.trunc:
            raise ConeMismatch("chart dimension or truncation mismatch")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        # an int has numerator and denominator too
        return [{"A": list(A), "m": list(m),
                 "c": f"{c.numerator}/{c.denominator}"}
                for (A, m), c in self.sorted_terms()]

    @classmethod
    def from_json(cls, data: Iterable[Mapping], cone, trunc: Truncation,
                  n: int) -> "RingElement":
        terms: dict[TermKey, Fraction] = {}
        for item in data:
            key = (integer_vector(item["A"]), integer_vector(item["m"]))
            terms[key] = terms.get(key, 0) + Fraction(item["c"])
        return cls(terms, cone, trunc, n)


# -- module-level operations -------------------------------------------------

def integer(x) -> int:
    """An integer read from JSON: an int or an integral float.  A bool, a
    string or any other value is an error, as is a non-integral number."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"non-integer entry {x!r}")
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"non-integral entry {x!r}")
    return int(x)


def integer_vector(xs: Iterable) -> tuple[int, ...]:
    """An integer vector read from JSON; a non-integral entry is an error."""
    return tuple(integer(x) for x in xs)


def _coeff(c) -> Coefficient:
    """``c`` in stored form: an int, or a Fraction with denominator > 1."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _product_by_exponent(f: RingElement,
                        factor: Callable[[Exponent], RingElement],
                        cap: int | None = None) -> RingElement:
    """The sum of c·t^A z^m·factor(m) over the terms of f, truncated, and
    without the classes of weight above ``cap`` when one is given.

    Under a degree truncation each factor's terms are walked lightest
    first, and the walk stops at the first class that would land in the
    ideal or above the cap, so no dropped pair is ever formed; a generator
    truncation tests each product class.
    """
    trunc = f.trunc
    terms: dict[TermKey, Coefficient] = {}
    get = terms.get
    if trunc.weights is not None:
        weights = trunc.weights
        bound = trunc.bound if cap is None else min(trunc.bound, cap)
        for (A1, m1), c1 in f.terms.items():
            room = bound - sum(map(operator.mul, weights, A1))
            for w2, A2, m2, c2 in factor(m1)._by_weight():
                if w2 > room:
                    break
                key = (tuple(map(operator.add, A1, A2)),
                       tuple(map(operator.add, m1, m2)))
                terms[key] = get(key, 0) + c1 * c2
    else:
        in_ideal = trunc.in_ideal
        for (A1, m1), c1 in f.terms.items():
            for (A2, m2), c2 in factor(m1).terms.items():
                A = tuple(map(operator.add, A1, A2))
                if not in_ideal(A) and (cap is None or sum(A) <= cap):
                    key = (A, tuple(map(operator.add, m1, m2)))
                    terms[key] = get(key, 0) + c1 * c2
    return RingElement._make(terms, f.cone, trunc, f.n)


def _series(start: RingElement, g: RingElement,
            coeff: Callable[[int], Coefficient]) -> RingElement:
    """start + sum over k >= 1 of coeff(k)·g^k, finite for nilpotent g
    (``_not_nilpotent``)."""
    result = start
    power = g
    k = 1
    while not power.is_zero():
        result = result.add(power.scale(coeff(k)))
        power = power.mul(g)
        k += 1
    return result


def _not_nilpotent(g: RingElement) -> str | None:
    """Why the series in g would never end: its first class that is not
    nilpotent (``Truncation.nilpotent``), or None if there is none."""
    for A, _m in g.terms:
        if not g.trunc.nilpotent(A):
            return f"class {list(A)} is not nilpotent"
    return None


def _unipotent_part(f: RingElement, operation: str) -> RingElement:
    """g = f - 1, checking that f is 1 plus a nilpotent element."""
    if f.constant_coefficient() != 1:
        raise NotUnipotent(f"{operation} requires constant term 1")
    g = f.sub(RingElement.one(f.cone, f.trunc, f.n))
    reason = _not_nilpotent(g)
    if reason is not None:
        raise NotUnipotent(f"{operation}: {reason}")
    return g


def exp_truncated(g: RingElement) -> RingElement:
    """exp(g) = sum g^k / k!, finite because g is nilpotent mod truncation."""
    reason = _not_nilpotent(g)
    if reason is not None:
        raise NonNilpotentArgument(f"exp: {reason}")
    return _series(RingElement.one(g.cone, g.trunc, g.n), g,
                   lambda k: Fraction(1, factorial(k)))


def invert(f: RingElement) -> RingElement:
    """Inverse of f = 1 + g with g supported in the augmentation ideal."""
    g = _unipotent_part(f, "inversion")
    return _series(RingElement.one(f.cone, f.trunc, f.n), g,
                   lambda k: (-1) ** k)


def log_unipotent(f: RingElement) -> RingElement:
    """log f = sum (-1)^(k+1) (f - 1)^k / k for unipotent f."""
    g = _unipotent_part(f, "logarithm")
    return _series(RingElement.zero(f.cone, f.trunc, f.n), g,
                   lambda k: Fraction((-1) ** (k + 1), k))


# -- stalkwise admissibility -------------------------------------------------

@dataclass(frozen=True)
class InteriorCodim1:
    """Interior of an interior codimension-one cell, seen from one chart.

    ``normal``: primitive conormal positive into the chart's maximal cell;
    ``kink``: bending class of the cell.
    """

    normal: tuple[int, ...]
    kink: tuple[int, ...]


def admissible_at(A: Sequence[int], m: Sequence[int],
                  location: InteriorCodim1) -> bool:
    """Membership of t^A z^m in the stalk of admissible monomials.

    At an interior codimension-one cell the stalk is generated over the cell's
    tangent directions by two transversals with product t^kink, so a monomial
    pointing out of the chart by delta < 0 steps is admissible precisely when
    A + delta·kink stays effective.
    """
    if any(a < 0 for a in A):
        return False
    pair = sum(a * b for a, b in zip(location.normal, m))
    return pair >= 0 or all(a + pair * k >= 0
                            for a, k in zip(A, location.kink))
