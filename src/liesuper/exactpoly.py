"""Exact sparse multivariate polynomial algebra over the rationals.

Everything in this module is exact: a coefficient is an ``int`` when it is
integral and a ``fractions.Fraction`` otherwise, never a float, so Lie
brackets, prolongations and rank computations carry no rounding error
whatsoever.  The form is canonical: an integral ``Fraction`` is stored as its
``int``, which compares and hashes equal to it.  Polynomials are stored
sparsely as a map from dense exponent tuples to nonzero coefficients; the
zero polynomial is the empty map.  Values are immutable after construction
and safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
    "CoordinateMismatch",
    "Elimination",
    "Polynomial",
    "RationalFunction",
    "VectorField",
    "lie_bracket",
    "prolong",
    "derive_along",
    "rank_at",
    "in_span",
]


class CoordinateMismatch(ValueError):
    """Raised when two objects live on different coordinate lists."""


def _scalar(c: Scalar) -> Scalar:
    """c in canonical form: an int when integral (a bool too), else a Fraction."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an exact rational scalar, got {type(c).__name__}")
    return c.numerator if c.denominator == 1 else c


def _canonical(terms: dict) -> dict:
    """terms without zero coefficients, each integral Fraction as its int."""
    return {e: c if type(c) is int else _scalar(c) for e, c in terms.items() if c}


def _product_into(out: dict, a: dict, b: dict) -> dict:
    """Add the product of the term maps a and b into out; return out."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = get(key, 0) + c1 * c2
    return out


def _point(point: Sequence[Scalar], n: int) -> list[Scalar]:
    if len(point) != n:
        raise ValueError(f"point has {len(point)} entries, expected {n}")
    return [_scalar(p) for p in point]


def _check_coords(a, b) -> None:
    if a.coords != b.coords:
        raise CoordinateMismatch(f"coordinate lists differ: {a.coords} vs {b.coords}")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (one non-negative integer per coordinate)
    to nonzero coefficients, ``int`` when integral and ``Fraction`` otherwise.
    Canonical form is enforced on construction, so two polynomials are equal
    iff their term maps are equal.
    """

    __slots__ = ("coords", "terms")

    def __init__(self, coords: Sequence[str], terms: dict | None = None):
        coords = tuple(coords)
        clean: dict[tuple[int, ...], Scalar] = {}
        n = len(coords)
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {n}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = _scalar(coeff)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "terms", _canonical(clean))

    @classmethod
    def _make(cls, coords: tuple[str, ...], terms: dict) -> "Polynomial":
        """Trusted constructor: exponents an operation built are not checked again."""
        p = object.__new__(cls)
        object.__setattr__(p, "coords", coords)
        object.__setattr__(p, "terms", _canonical(terms))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, coords: Sequence[str]) -> "Polynomial":
        return cls(coords)

    @classmethod
    def constant(cls, c: Scalar, coords: Sequence[str]) -> "Polynomial":
        coords = tuple(coords)
        return cls(coords, {(0,) * len(coords): c})

    @classmethod
    def variable(cls, name: str, coords: Sequence[str]) -> "Polynomial":
        coords = tuple(coords)
        if name not in coords:
            raise CoordinateMismatch(f"unknown coordinate {name!r} (coords {coords})")
        exps = tuple(1 if c == name else 0 for c in coords)
        return cls(coords, {exps: 1})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_coords(self, other)
        terms = dict(self.terms)
        get = terms.get
        for exps, c in other.terms.items():
            terms[exps] = get(exps, 0) + c
        return Polynomial._make(self.coords, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_coords(self, other)
        return Polynomial._make(self.coords, _product_into({}, self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "Polynomial":
        c = _scalar(c)
        return Polynomial._make(self.coords, {e: c * v for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.constant(1, self.coords)
        for _ in range(n):
            out = out * self
        return out

    def exact_div(self, divisor: "Polynomial") -> "Polynomial | None":
        """The quotient q with self = q * divisor, or None if there is none.

        Division by the lexicographic leading term.  Tuple order on
        exponent vectors is lex, a monomial order, so the leading term of
        the remainder strictly decreases and the loop ends.  In a monomial
        order LT(q * d) = LT(q) * LT(d): a remainder whose leading term is
        not a multiple of LT(d) is not a multiple of d.
        """
        _check_coords(self, divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        lead = max(divisor.terms)
        lead_c = divisor.terms[lead]
        tail = [(e, c) for e, c in divisor.terms.items() if e != lead]
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], Scalar] = {}
        while rem:
            top = max(rem)
            shift = tuple(map(sub, top, lead))
            if any(k < 0 for k in shift):
                return None
            c = quot[shift] = _scalar(Fraction(rem.pop(top)) / lead_c)
            for e, dc in tail:
                key = tuple(map(add, shift, e))
                s = rem[key] = rem.get(key, 0) - c * dc
                if not s:
                    del rem[key]
        return Polynomial._make(self.coords, quot)

    # -- calculus and evaluation -------------------------------------------

    def diff(self, name: str) -> "Polynomial":
        """Exact partial derivative with respect to the named coordinate."""
        try:
            i = self.coords.index(name)
        except ValueError:
            raise CoordinateMismatch(
                f"unknown coordinate {name!r} (coords {self.coords})"
            ) from None
        out: dict[tuple[int, ...], Scalar] = {}
        for exps, c in self.terms.items():
            k = exps[i]
            if k:
                out[exps[:i] + (k - 1,) + exps[i + 1 :]] = c * k
        return Polynomial._make(self.coords, out)

    def eval(self, point: Sequence[Scalar]) -> Scalar:
        """Evaluate exactly at a rational point."""
        return self._eval(_point(point, len(self.coords)))

    def _eval(self, pt: list[Scalar]) -> Scalar:
        total = 0
        for exps, c in self.terms.items():
            for base, k in zip(pt, exps):
                if k:  # a Fraction on the left takes its forward, faster path
                    c = (base if k == 1 else base**k) * c
            total = c + total
        return total

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading_coefficient(self) -> Scalar:
        """Coefficient of the lexicographically largest exponent vector."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coords == other.coords and self.terms == other.terms

    def __hash__(self):
        return hash((self.coords, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            c = self.terms[exps]
            factors = [
                name if k == 1 else f"{name}^{k}"
                for name, k in zip(self.coords, exps)
                if k
            ]
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")


class RationalFunction:
    """Quotient of two polynomials; equality via cross-multiplication.

    The denominator is normalised so that its leading coefficient (in
    lexicographic term order) is positive.  No gcd cancellation is attempted:
    equality testing ``p/q == r/s  iff  p*s - r*q == 0`` makes it unnecessary.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.constant(1, num.coords)
        _check_coords(num, den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in RationalFunction")
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def coords(self) -> tuple[str, ...]:
        return self.num.coords

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    def __repr__(self) -> str:
        return f"({self.num}) / ({self.den})"


class VectorField:
    """Polynomial vector field: one polynomial component per coordinate."""

    __slots__ = ("components", "coords")

    def __init__(self, components: Iterable[Polynomial], coords: Sequence[str]):
        components = tuple(components)
        coords = tuple(coords)
        if len(components) != len(coords):
            raise CoordinateMismatch(
                f"{len(components)} components for {len(coords)} coordinates"
            )
        for comp in components:
            if comp.coords != coords:
                raise CoordinateMismatch(
                    f"component coords {comp.coords} differ from field coords {coords}"
                )
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, coords: Sequence[str]) -> "VectorField":
        coords = tuple(coords)
        return cls([Polynomial.zero(coords)] * len(coords), coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        _check_coords(self, other)
        return VectorField(
            [a + b for a, b in zip(self.components, other.components)], self.coords
        )

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.components], self.coords)

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Scalar) -> "VectorField":
        return VectorField([p.scale(c) for p in self.components], self.coords)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.coords == other.coords and self.components == other.components

    def apply(self, p: Polynomial) -> Polynomial:
        """Lie derivative of a polynomial: X(p) = sum_i X^i dp/dx_i."""
        _check_coords(self, p)
        out: dict[tuple[int, ...], Scalar] = {}
        for comp, name in zip(self.components, self.coords):
            if comp.terms:
                _product_into(out, comp.terms, p.diff(name).terms)
        return Polynomial._make(self.coords, out)

    def eval(self, point: Sequence[Scalar]) -> list[Scalar]:
        pt = _point(point, len(self.coords))
        return [c._eval(pt) for c in self.components]

    def slots(self) -> dict[tuple[int, tuple[int, ...]], Scalar]:
        """The field as a sparse vector: (component, exponents) -> coefficient."""
        return {
            (j, exps): c
            for j, comp in enumerate(self.components)
            for exps, c in comp.terms.items()
        }

    def __repr__(self) -> str:
        parts = [
            f"({comp}) d/d{name}"
            for comp, name in zip(self.components, self.coords)
            if not comp.is_zero
        ]
        return " + ".join(parts) if parts else "0"


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y] with components X(Y^i) - Y(X^i); exact."""
    _check_coords(X, Y)
    return VectorField(
        [X.apply(Yc) - Y.apply(Xc) for Xc, Yc in zip(X.components, Y.components)],
        X.coords,
    )


def prolonged_coords(coords: Sequence[str], copies: int) -> tuple[str, ...]:
    """Coordinate list of the diagonal prolongation, base-block major.

    For base coordinates (x, v) and m copies this is the fixed order
    (x0, ..., x_{m-1}, v0, ..., v_{m-1}); all downstream index conventions
    rely on it.
    """
    if copies <= 0:
        raise ValueError("copies must be a positive integer")
    return tuple(f"{c}{a}" for c in coords for a in range(copies))


def prolong(X: VectorField, copies: int) -> VectorField:
    """Diagonal prolongation of X to ``copies`` labelled copies of its space.

    The prolonged field acts on copy ``a`` exactly as X acts on its base
    space, with every base coordinate ``c`` renamed to ``c{a}``.
    """
    new_coords = prolonged_coords(X.coords, copies)
    width = len(new_coords)

    def translate(p: Polynomial, a: int) -> Polynomial:
        terms = {}
        for exps, c in p.terms.items():
            new_exps = [0] * width
            for j, k in enumerate(exps):
                new_exps[j * copies + a] = k
            terms[tuple(new_exps)] = c
        return Polynomial._make(new_coords, terms)

    # component j * copies + a is base component j on copy a
    components = [translate(comp, a) for comp in X.components for a in range(copies)]
    return VectorField(components, new_coords)


def derive_along(X: VectorField, F: RationalFunction) -> RationalFunction:
    """Lie derivative X(F) of a rational function, by the exact quotient rule.

    F = p/q is a first integral of X iff the numerator of the result is the
    zero polynomial.
    """
    _check_coords(X, F)
    p, q = F.num, F.den
    return RationalFunction(q * X.apply(p) - p * X.apply(q), q * q)


def _cleared(vector) -> tuple[int, dict]:
    """(L, L * vector) over the integers, L the lcm of the denominators."""
    scale = 1
    for x in vector.values():
        if x:
            scale = math.lcm(scale, x.denominator)
    return scale, {
        s: x.numerator * (scale // x.denominator) for s, x in vector.items() if x
    }


class Elimination:
    """One exact elimination of a basis of sparse rational vectors.

    A vector is a map from slot to rational (``int`` or ``Fraction``); absent
    slots are zero.  The basis is eliminated once, in basis order, by Bareiss
    fraction-free elimination (Bareiss 1968) on integer rows, denominators
    cleared row by row: a vector becomes a pivot row iff it is independent of
    the vectors before it.  A target is reduced by replaying the same steps;
    the multipliers it meets, replayed on the combinations of basis vectors
    the pivot rows stand for, give its coefficients.  Every Bareiss division
    is exact (each entry is a minor of the integer matrix augmented by the
    identity).
    """

    __slots__ = ("rank", "_rows", "_scales", "_pivots", "_origins", "_combos")

    def __init__(self, basis: Sequence[dict]):
        self._rows: list[dict] = []  # L_j b_j, each basis vector cleared
        self._scales: list[int] = []  # L_j
        self._pivots: list[tuple[object, dict, int]] = []  # column, row, pivot
        self._origins: list[tuple[int, list[int]]] = []  # basis index, factors
        for i, v in enumerate(basis):
            scale, row = _cleared(v)
            self._scales.append(scale)
            self._rows.append(row)
            row, factors, _ = self._reduce(row)
            if row:
                col = next(iter(row))
                self._pivots.append((col, row, row[col]))
                self._origins.append((i, factors))
        self.rank = len(self._pivots)
        # each pivot row as a combination of basis vectors; built by the first
        # solve, since a rank needs none
        self._combos: list[list[int]] | None = None

    def _reduce(self, row: dict):
        """Replay the Bareiss steps on one integer row.

        Returns the residual, the row's entry in each pivot column as it met
        that pivot, and the last pivot value (1 when there is none).  A
        target row reduces to nothing iff it lies in the span.
        """
        prev = 1
        factors = []
        for col, prow, piv in self._pivots:
            f = row.get(col, 0)
            factors.append(f)
            if f:
                out = {s: piv * x for s, x in row.items()}
                for s, x in prow.items():
                    out[s] = out.get(s, 0) - f * x
                row = {s: x // prev for s, x in out.items() if x}
            elif piv != prev:
                row = {s: piv * x // prev for s, x in row.items()}
            prev = piv
        return row, factors, prev

    def _combine(self, combo: list[int], factors: list[int]) -> list[int]:
        """The steps ``_reduce`` took, applied to a combination of basis vectors.

        A row w + sum_j a_j L_j b_j (b_j the basis vectors, L_j their clearing
        scales) that met ``factors`` leaves as p w + sum_j a'_j L_j b_j, p the
        last pivot; a' is returned.
        """
        prev = 1
        for (_, _, piv), f, pcombo in zip(self._pivots, factors, self._combos):
            if f:
                combo = [(piv * a - f * b) // prev for a, b in zip(combo, pcombo)]
            elif piv != prev:
                combo = [piv * a // prev for a in combo]
            prev = piv
        return combo

    def solve(self, target: dict) -> list[Fraction] | None:
        """Exact coefficients c with sum c_i basis_i == target, or None.

        Dependent basis vectors get coefficient 0.  The combination they
        stand for is checked, over the integers, to reproduce the target
        exactly before they are returned.
        """
        scale, target_row = _cleared(target)
        row, factors, last = self._reduce(target_row)
        if row:
            return None
        k = len(self._rows)
        if self._combos is None:
            self._combos = []
            for i, pfactors in self._origins:
                unit = [0] * k
                unit[i] = 1
                self._combos.append(self._combine(unit, pfactors))
        # last * L t + sum_j a_j L_j b_j == 0
        combo = self._combine([0] * k, factors)
        total: dict = {}
        for a, r in zip(combo, self._rows):
            if a:
                for s, x in r.items():
                    total[s] = total.get(s, 0) + a * x
        if {s: x for s, x in total.items() if x} != {
            s: -last * x for s, x in target_row.items()
        }:
            return None
        den = -scale * last
        return [Fraction(a * s, den) for a, s in zip(combo, self._scales)]


def rank_at(fields: Sequence[VectorField], point: Sequence[Scalar]) -> int:
    """Exact rank of the field components matrix at a rational point."""
    if not fields:
        return 0
    coords = fields[0].coords
    for f in fields[1:]:
        if f.coords != coords:
            raise CoordinateMismatch("fields live on different coordinate lists")
    pt = _point(point, len(coords))  # converted once for every component
    return Elimination(
        [dict(enumerate(c._eval(pt) for c in f.components)) for f in fields]
    ).rank


def in_span(
    X: VectorField, basis: Sequence[VectorField]
) -> list[Fraction] | None:
    """Exact coefficients c with X = sum c_i basis_i, or None if not in span.

    The fields are vectors over their (component, monomial) slots; see
    :class:`Elimination`.
    """
    for f in basis:
        _check_coords(X, f)
    return Elimination([f.slots() for f in basis]).solve(X.slots())
