"""Concrete Lie-algebraic objects and their machine verification.

Builds the eight polynomial vector fields X1..X8 on (x, v) that close into
an algebra isomorphic to sl(3, R), the eight traceless 3x3 matrices realising
the same structure constants, and the eight fields Y1..Y8 of the quasi-Lie
scheme used for the time-dependent Riccati superposition.  The printed
bracket tables are stored as literal data and *compared against* exact
computation rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .exactpoly import (
    Elimination,
    Polynomial,
    VectorField,
    lie_bracket,
)

__all__ = [
    "XV_COORDS",
    "Matrix3",
    "NotClosed",
    "CheckRecord",
    "Report",
    "builtin_fields",
    "sl3_matrices",
    "matrix_bracket",
    "structure_constants",
    "verify_paper_table",
    "verify_isomorphism",
    "verify_scheme",
    "PRINTED_SL3_TABLE",
    "PRINTED_SCHEME_TABLE",
]

XV_COORDS = ("x", "v")

F = Fraction


def _poly(coeff_map: dict[tuple[int, int], int | Fraction]) -> Polynomial:
    return Polynomial(XV_COORDS, coeff_map)


def _field(xc: dict, vc: dict) -> VectorField:
    return VectorField([_poly(xc), _poly(vc)], XV_COORDS)


def builtin_fields(which: str) -> list[VectorField]:
    """The two built-in families of vector fields on (x, v).

    ``"sl3-family"`` returns X1..X8; ``"riccati-scheme"`` returns Y1..Y8.
    Names are 1-indexed by convention; index i lives at list position i-1.
    """
    if which == "sl3-family":
        return [
            # X1 = v d/dx - (3xv + x^3) d/dv
            _field({(0, 1): 1}, {(1, 1): -3, (3, 0): -1}),
            # X2 = d/dv
            _field({}, {(0, 0): 1}),
            # X3 = -d/dx + 3x d/dv
            _field({(0, 0): -1}, {(1, 0): 3}),
            # X4 = x d/dx - 2x^2 d/dv
            _field({(1, 0): 1}, {(2, 0): -2}),
            # X5 = (v + 2x^2) d/dx - x(v + 3x^2) d/dv
            _field({(0, 1): 1, (2, 0): 2}, {(1, 1): -1, (3, 0): -3}),
            # X6 = 2x(v + x^2) d/dx + 2(v^2 - x^4) d/dv
            _field({(1, 1): 2, (3, 0): 2}, {(0, 2): 2, (4, 0): -2}),
            # X7 = d/dx - x d/dv
            _field({(0, 0): 1}, {(1, 0): -1}),
            # X8 = 2x d/dx + 4v d/dv
            _field({(1, 0): 2}, {(0, 1): 4}),
        ]
    if which == "riccati-scheme":
        return [
            _field({(0, 1): 1}, {}),            # Y1 = v d/dx
            _field({}, {(0, 1): 1}),            # Y2 = v d/dv
            _field({}, {(1, 1): 1}),            # Y3 = xv d/dv
            _field({}, {(0, 0): 1}),            # Y4 = d/dv
            _field({}, {(1, 0): 1}),            # Y5 = x d/dv
            _field({}, {(2, 0): 1}),            # Y6 = x^2 d/dv
            _field({}, {(3, 0): 1}),            # Y7 = x^3 d/dv
            _field({(1, 0): 1}, {}),            # Y8 = x d/dx
        ]
    raise ValueError(f"unknown family {which!r}")


def _entry(x) -> int | Fraction:
    """x as an exact rational: an int when integral, else a Fraction."""
    x = x if isinstance(x, int) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class Matrix3:
    """Exact 3x3 rational matrix; entries are ints when integral, else Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int | Fraction]]):
        rows = tuple(tuple(_entry(x) for x in r) for r in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Matrix3 needs a 3x3 array of rationals")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix3 is immutable")

    def __matmul__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(
            [
                [
                    sum(self.rows[i][k] * other.rows[k][j] for k in range(3))
                    for j in range(3)
                ]
                for i in range(3)
            ]
        )

    def __add__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix3") -> "Matrix3":
        return Matrix3(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def scale(self, c: int | Fraction) -> "Matrix3":
        return Matrix3([[c * a for a in r] for r in self.rows])

    def trace(self) -> int | Fraction:
        return sum(self.rows[i][i] for i in range(3))

    def flat(self) -> list[int | Fraction]:
        return [a for r in self.rows for a in r]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix3):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"Matrix3({[list(map(str, r)) for r in self.rows]})"


def matrix_bracket(A: Matrix3, B: Matrix3) -> Matrix3:
    """Commutator AB - BA, exact."""
    return (A @ B) - (B @ A)


def sl3_matrices() -> list[Matrix3]:
    """The traceless matrices M1..M8 realising the X1..X8 bracket table."""
    return [
        Matrix3([[0, -1, 0], [0, 0, -1], [0, 0, 0]]),
        Matrix3([[0, 0, 0], [0, 0, 0], [-1, 0, 0]]),
        Matrix3([[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
        Matrix3([[F(1, 3), 0, 0], [0, F(-2, 3), 0], [0, 0, F(1, 3)]]),
        Matrix3([[0, 1, 0], [0, 0, -1], [0, 0, 0]]),
        Matrix3([[0, 0, 2], [0, 0, 0], [0, 0, 0]]),
        Matrix3([[0, 0, 0], [-1, 0, 0], [0, -1, 0]]),
        Matrix3([[2, 0, 0], [0, 0, 0], [0, 0, -2]]),
    ]


# The 28 printed bracket relations for X1..X8: six defining relations plus
# the commutator table.  Keys are 1-based pairs (a, b) with a < b; values map
# basis index -> coefficient of [Xa, Xb].
PRINTED_SL3_TABLE: dict[tuple[int, int], dict[int, Fraction]] = {
    (1, 2): {3: F(1)},
    (1, 3): {4: F(-3)},
    (1, 4): {5: F(1)},
    (1, 5): {6: F(1)},
    (1, 6): {},
    (1, 7): {8: F(1, 2)},
    (1, 8): {1: F(-2)},
    (2, 3): {},
    (2, 4): {},
    (2, 5): {7: F(1)},
    (2, 6): {8: F(1)},
    (2, 7): {},
    (2, 8): {2: F(4)},
    (3, 4): {7: F(-1)},
    (3, 5): {8: F(-1, 2)},
    (3, 6): {1: F(-2)},
    (3, 7): {2: F(-2)},
    (3, 8): {3: F(2)},
    (4, 5): {1: F(-1)},
    (4, 6): {},
    (4, 7): {3: F(1)},
    (4, 8): {},
    (5, 6): {},
    (5, 7): {4: F(-3)},
    (5, 8): {5: F(-2)},
    (6, 7): {5: F(-2)},
    (6, 8): {6: F(-4)},
    (7, 8): {7: F(2)},
}

# The printed action of W = <Y2, Y8> on Y1..Y8 (16 brackets).  Keys are
# (w, j) with w in {2, 8}; values map basis index -> coefficient of [Yw, Yj].
PRINTED_SCHEME_TABLE: dict[tuple[int, int], dict[int, Fraction]] = {
    (2, 1): {1: F(1)},
    (2, 2): {},
    (2, 3): {},
    (2, 4): {4: F(-1)},
    (2, 5): {5: F(-1)},
    (2, 6): {6: F(-1)},
    (2, 7): {7: F(-1)},
    (2, 8): {},
    (8, 1): {1: F(-1)},
    (8, 2): {},
    (8, 3): {3: F(1)},
    (8, 4): {},
    (8, 5): {5: F(1)},
    (8, 6): {6: F(2)},
    (8, 7): {7: F(3)},
    (8, 8): {},
}

# ad_Y3^k(Y6) is checked for k = 1..WITNESS_DEPTH
WITNESS_DEPTH = 6


class NotClosed(ValueError):
    """A bracket of basis elements fell outside their span."""

    def __init__(self, a: int, b: int, bracket: VectorField):
        self.pair = (a, b)
        self.bracket = bracket
        super().__init__(f"[{a},{b}] is not in the span of the basis")


StructureTable = dict[tuple[int, int], list[Fraction]]


def structure_constants(basis: Sequence[VectorField]) -> StructureTable:
    """Structure constants of a closed basis, or NotClosed if it is not one.

    Returns a map from each 1-based pair (a, b) with a < b to the exact
    coefficient vector of [X_a, X_b] in the basis.  The basis is eliminated
    once; the brackets are resolved in order, and the first one outside the
    span raises before any later bracket is computed.
    """
    span = Elimination([f.slots() for f in basis])
    table: StructureTable = {}
    n = len(basis)
    for a in range(n):
        for b in range(a + 1, n):
            bracket = lie_bracket(basis[a], basis[b])
            coeffs = span.solve(bracket.slots())
            if coeffs is None:
                raise NotClosed(a + 1, b + 1, bracket)
            table[(a + 1, b + 1)] = coeffs
    return table


@dataclass(frozen=True)
class CheckRecord:
    """One verified item: what was expected, what was computed, verdict."""

    name: str
    expected: str
    computed: str
    status: str  # "PASS", "FAIL" or "WARN"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class Report:
    """A titled list of check records with text and structured rendering."""

    title: str
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, name, expected, computed, ok, note="", warn_only=False):
        status = "PASS" if ok else ("WARN" if warn_only else "FAIL")
        self.records.append(
            CheckRecord(name, str(expected), str(computed), status, note)
        )

    @property
    def passed(self) -> bool:
        return all(r.status != "FAIL" for r in self.records)

    @property
    def n_failed(self) -> int:
        return sum(r.status == "FAIL" for r in self.records)

    def to_text(self) -> str:
        lines = [self.title, "-" * len(self.title)]
        for r in self.records:
            lines.append(f"[{r.status}] {r.name}: expected {r.expected}, got {r.computed}")
            if r.note:
                lines.append(f"       {r.note}")
        verdict = "OK" if self.passed else f"{self.n_failed} FAILURE(S)"
        lines.append(f"=> {verdict} ({len(self.records)} checks)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
        }


def _coeff_str(coeffs: dict[int, Fraction] | Sequence[Fraction]) -> str:
    if isinstance(coeffs, dict):
        items = sorted(coeffs.items())
    else:
        items = [(i + 1, c) for i, c in enumerate(coeffs) if c]
    if not items:
        return "0"
    return " + ".join(f"({c})*e{i}" for i, c in items)


def _coeffs_match(
    computed: Sequence[Fraction], printed: dict[int, Fraction]
) -> bool:
    return all(
        computed[i] == printed.get(i + 1, 0) for i in range(len(computed))
    )


def verify_paper_table(fields: Sequence[VectorField] | None = None) -> Report:
    """Compare the computed X1..X8 structure constants with the printed table.

    Mismatches are report content, not exceptions, so typos in the literal
    table (or deliberately mutated fields) are detectable.
    """
    basis = list(fields) if fields is not None else builtin_fields("sl3-family")
    report = Report("bracket table of {X1..X8} vs printed relations")
    try:
        table = structure_constants(basis)
    except NotClosed as exc:
        report.add(
            f"[X{exc.pair[0]},X{exc.pair[1]}]",
            "closed bracket",
            "outside span",
            False,
            note=f"bracket = {exc.bracket}",
        )
        return report
    for pair, printed in PRINTED_SL3_TABLE.items():
        computed = table[pair]
        report.add(
            f"[X{pair[0]},X{pair[1]}]",
            _coeff_str(printed),
            _coeff_str(computed),
            _coeffs_match(computed, printed),
        )
    return report


def verify_isomorphism(fields: Sequence[VectorField] | None = None) -> Report:
    """Check that M1..M8 realise exactly the X1..X8 structure constants.

    Verifies tracelessness and linear independence of the matrices (so the
    correspondence is onto an eight-dimensional algebra) and, pair by pair,
    that [Ma, Mb] and [Xa, Xb] resolve to identical coefficient vectors.
    """
    basis = list(fields) if fields is not None else builtin_fields("sl3-family")
    mats = sl3_matrices()
    report = Report("matrix realisation of the {X1..X8} bracket table")

    for i, M in enumerate(mats):
        report.add(f"trace(M{i+1})", 0, M.trace(), M.trace() == 0)

    # one elimination of M1..M8 gives their rank and every bracket's coefficients
    span = Elimination([dict(enumerate(M.flat())) for M in mats])
    report.add("rank of {M1..M8}", 8, span.rank, span.rank == len(mats))

    try:
        vf_table = structure_constants(basis)
    except NotClosed as exc:
        report.add(
            f"[X{exc.pair[0]},X{exc.pair[1]}]",
            "closed bracket",
            "outside span",
            False,
        )
        return report

    n = len(mats)
    for a in range(n):
        for b in range(a + 1, n):
            mb = matrix_bracket(mats[a], mats[b])
            mc = span.solve(dict(enumerate(mb.flat())))
            xc = vf_table[(a + 1, b + 1)]
            ok = mc is not None and list(mc) == list(xc)
            report.add(
                f"[M{a+1},M{b+1}] vs [X{a+1},X{b+1}]",
                _coeff_str(xc),
                _coeff_str(mc) if mc is not None else "outside span",
                ok,
            )
    return report


def ad_power(Z: VectorField, X: VectorField, k: int) -> VectorField:
    """k-fold iterated bracket ad_Z^k(X) = [Z, [Z, ... [Z, X]]]."""
    out = X
    for _ in range(k):
        out = lie_bracket(Z, out)
    return out


def verify_scheme() -> Report:
    """Machine-check the quasi-Lie scheme conditions for (W, V) on Y1..Y8.

    Checks that W = <Y2, Y8> is abelian and contained in V, reproduces the
    printed 16-entry bracket table for [W, V], and exhibits the non-closure
    witness ad_{Y3}^k(Y6) = (-x)^{k+2} d/dv, which leaves span{Y1..Y8} for
    every k >= 2.  Non-closure is demonstrated by this finite witness list,
    not proven; WITNESS_DEPTH sets how far it goes.
    """
    Y = builtin_fields("riccati-scheme")
    span = Elimination([y.slots() for y in Y])
    report = Report("quasi-Lie scheme conditions for (W, V), Y1..Y8")

    w28 = lie_bracket(Y[1], Y[7])
    report.add("[Y2,Y8]", "0", str(w28), w28.is_zero, note="W is abelian")

    for w in (2, 8):
        c = span.solve(Y[w - 1].slots())
        report.add(f"Y{w} in V", "member", "member" if c else "outside", c is not None)

    for (w, j), printed in PRINTED_SCHEME_TABLE.items():
        bracket = lie_bracket(Y[w - 1], Y[j - 1])
        coeffs = span.solve(bracket.slots())
        ok = coeffs is not None and _coeffs_match(coeffs, printed)
        report.add(
            f"[Y{w},Y{j}]",
            _coeff_str(printed),
            _coeff_str(coeffs) if coeffs is not None else "outside span",
            ok,
        )

    coords = XV_COORDS
    x = Polynomial.variable("x", coords)
    zero = Polynomial.zero(coords)
    for k in range(1, WITNESS_DEPTH + 1):
        ad = ad_power(Y[2], Y[5], k)
        expected = VectorField([zero, ((-1) ** k) * x ** (k + 2)], coords)
        report.add(
            f"ad_Y3^{k}(Y6)",
            f"(-x)^{k+2} d/dv",
            str(ad),
            ad == expected,
        )
        if k >= 2:
            member = span.solve(ad.slots()) is not None
            report.add(
                f"ad_Y3^{k}(Y6) outside span{{Y1..Y8}}",
                "not-in-span",
                "member" if member else "not-in-span",
                not member,
            )
    return report
