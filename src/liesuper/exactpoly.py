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


def _quotient(n: Scalar, d: Scalar) -> Scalar:
    """n / d in canonical form: the int quotient when d divides n."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _immutable(self, name, value=None):  # __setattr__ and __delattr__
    raise AttributeError(f"{type(self).__name__} is immutable")


def _canonical(terms: dict) -> dict:
    """terms without zero coefficients, each integral Fraction as its int."""
    return {e: c if type(c) is int else _scalar(c) for e, c in terms.items() if c}


def _merged(p, q, op):
    """p op q term by term, op add or sub; NotImplemented unless q is a Polynomial."""
    if not isinstance(q, Polynomial):
        return NotImplemented
    _check_coords(p, q)
    terms = dict(p.terms)
    get = terms.get
    for exps, c in q.terms.items():
        terms[exps] = op(get(exps, 0), c)
    return Polynomial._make(p.coords, terms)


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

    __setattr__ = __delattr__ = _immutable

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
        return _merged(self, other, add)

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.coords, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return _merged(self, other, sub)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_coords(self, other)
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = get(key, 0) + c1 * c2
        return Polynomial._make(self.coords, out)

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
            c = quot[shift] = _quotient(rem.pop(top), lead_c)
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

    No gcd cancellation is attempted: equality testing
    ``p/q == r/s  iff  p*s - r*q == 0`` makes it unnecessary.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        _check_coords(num, den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in RationalFunction")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    __setattr__ = __delattr__ = _immutable

    @property
    def coords(self) -> tuple[str, ...]:
        return self.num.coords

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

    __setattr__ = __delattr__ = _immutable

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

    def scale(self, c: Scalar) -> "VectorField":
        return VectorField([p.scale(c) for p in self.components], self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.coords == other.coords and self.components == other.components

    def apply(self, p: Polynomial) -> Polynomial:
        """Lie derivative X(p) = sum_i X^i dp/dx_i in one pass over p's terms:
        c x^e adds (c e_i) X^i at e lowered in x_i, for each e_i > 0."""
        _check_coords(self, p)
        out: dict[tuple[int, ...], Scalar] = {}
        get = out.get
        comps = [comp.terms for comp in self.components]
        for exps, c in p.terms.items():
            for i, k in enumerate(exps):
                if k and comps[i]:
                    low, ck = exps[:i] + (k - 1,) + exps[i + 1 :], c * k
                    for e, x in comps[i].items():
                        key = tuple(map(add, low, e))
                        out[key] = get(key, 0) + ck * x
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


def relabel(p: Polynomial, coords: tuple[str, ...], where: Sequence[int]) -> Polynomial:
    """p on ``coords``, exponent k of each term moved to position where[k]."""
    terms = {}
    for exps, c in p.terms.items():
        new_exps = [0] * len(coords)
        for k, e in zip(where, exps):
            new_exps[k] = e
        terms[tuple(new_exps)] = c
    return Polynomial._make(coords, terms)


def prolong(X: VectorField, copies: int) -> VectorField:
    """Diagonal prolongation of X to ``copies`` labelled copies of its space.

    The prolonged field acts on copy ``a`` exactly as X acts on its base
    space, with every base coordinate ``c`` renamed to ``c{a}``.
    """
    new_coords = prolonged_coords(X.coords, copies)
    # component j * copies + a is base component j on copy a
    components = [relabel(comp, new_coords, range(a, len(new_coords), copies))
                  for comp in X.components for a in range(copies)]
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


def _step(v: dict, w: dict, piv: int, f: int) -> dict:
    """The division-free step piv v - f w on sparse integer vectors."""
    out = {s: piv * x for s, x in v.items()}
    for s, x in w.items():
        out[s] = out.get(s, 0) - f * x
    return {s: x for s, x in out.items() if x}


def _reduce(pivots: list, row: dict, combo: dict):
    """(row, combo, p): both reduced, p the product of the pivots met."""
    p = 1
    for col, prow, piv, pcombo in pivots:
        if f := row.get(col):
            row = _step(row, prow, piv, f)
            combo = _step(combo, pcombo, piv, f)
            p *= piv
    return row, combo, p


def _echelon(pairs: Iterable[tuple[dict, dict]]) -> list:
    """The pivots of integer (row, combination) pairs: a row independent of the
    pivot rows before it joins them, divided with its combination by their gcd."""
    pivots: list[tuple[object, dict, int, dict]] = []
    for row, combo in pairs:
        row, combo, _ = _reduce(pivots, row, combo)
        if row:
            g = math.gcd(*row.values(), *combo.values())
            row = {s: x // g for s, x in row.items()}
            combo = {j: a // g for j, a in combo.items()}
            col = next(iter(row))
            pivots.append((col, row, row[col], combo))
    return pivots


class Elimination:
    """One exact elimination of a basis of sparse rational vectors.

    A vector is a map from slot to rational (``int`` or ``Fraction``); absent
    slots are zero.  Every row, basis vector or target, is cleared to
    integers (L_j b_j, L t) and reduced the same way: through each pivot
    whose column it holds, by the division-free step piv row - f pivot_row
    (a later pivot row is zero in each earlier pivot's column).  The row's
    integer combination a of the cleared basis rows takes the same steps, so
    a target ends as p L t + sum_j a_j L_j b_j, p the product of the pivots
    met.  A basis row starts as its own unit combination; :func:`rank_at`
    takes the same echelon with empty combinations, since only ``solve``
    reads them.  A target that ends as zero is solved by the a_j.
    One ``verify`` takes 6 pivot steps for its bases and 72 for its targets.
    """

    __slots__ = ("rank", "_rows", "_scales", "_pivots")

    def __init__(self, basis: Sequence[dict]):
        cleared = [_cleared(v) for v in basis]
        self._scales = [scale for scale, _ in cleared]  # L_j
        self._rows = [row for _, row in cleared]  # L_j b_j
        self._pivots = _echelon((row, {i: 1}) for i, row in enumerate(self._rows))
        self.rank = len(self._pivots)

    def solve(self, target: dict) -> list[Scalar] | None:
        """Exact coefficients c with sum c_i basis_i == target, or None.

        Each coefficient is a canonical scalar, an int when integral.
        Dependent basis vectors get coefficient 0.  The combination they
        stand for is checked, over the integers, to reproduce the target
        exactly before they are returned.
        """
        scale, target_row = _cleared(target)
        row, combo, p = _reduce(self._pivots, target_row, {})
        if row:
            return None
        # p * L t + sum_j a_j L_j b_j == 0
        total: dict = {}
        for j, a in combo.items():
            for s, x in self._rows[j].items():
                total[s] = total.get(s, 0) + a * x
        if {s: x for s, x in total.items() if x} != {
            s: -p * x for s, x in target_row.items()
        }:
            return None
        den = -scale * p
        return [_quotient(a * s, den) if (a := combo.get(j)) else 0
                for j, s in enumerate(self._scales)]


def rank_at(fields: Sequence[VectorField], point: Sequence[Scalar]) -> int:
    """Exact rank of the field components matrix at a rational point."""
    if not fields:
        return 0
    coords = fields[0].coords
    for f in fields[1:]:
        if f.coords != coords:
            raise CoordinateMismatch("fields live on different coordinate lists")
    pt = _point(point, len(coords))  # converted once for every component
    rows = (dict(enumerate(c._eval(pt) for c in f.components)) for f in fields)
    return len(_echelon((_cleared(v)[1], {}) for v in rows))


def in_span(
    X: VectorField, basis: Sequence[VectorField]
) -> list[Scalar] | None:
    """Exact coefficients c with X = sum c_i basis_i, or None if not in span.

    The fields are vectors over their (component, monomial) slots; see
    :class:`Elimination`.
    """
    for f in basis:
        _check_coords(X, f)
    return Elimination([f.slots() for f in basis]).solve(X.slots())
