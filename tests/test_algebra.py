"""Verification suites for the sl(3,R) fields, matrices, and the scheme."""

from fractions import Fraction

import pytest

from liesuper.algebra import (
    PRINTED_SL3_TABLE,
    Matrix3,
    NotClosed,
    _structure_or_not_closed,
    builtin_fields,
    matrix_bracket,
    sl3_matrices,
    structure_constants,
    verify_isomorphism,
    verify_paper_table,
    verify_scheme,
)
from liesuper import algebra, exactpoly
from liesuper.cli import _mutated_sl3_fields, main
from liesuper.exactpoly import Polynomial, VectorField, lie_bracket

import reference


class TestStructureConstants:
    def test_closed_and_matches_reference_table(self):
        table = structure_constants(builtin_fields("sl3-family"))
        assert len(table) == 28
        for pair, expected in PRINTED_SL3_TABLE.items():
            computed = table[pair]
            for i, c in enumerate(computed):
                assert c == expected.get(i + 1, 0), f"[X{pair[0]},X{pair[1]}]"

    def test_not_closed_raises(self):
        fields = builtin_fields("sl3-family")
        coords = fields[0].coords
        x = Polynomial.variable("x", coords)
        bad = VectorField([Polynomial.zero(coords), x**4], coords)
        with pytest.raises(NotClosed):
            structure_constants(fields + [bad])

    def test_first_bracket_outside_span_stops_the_scan(self, monkeypatch):
        # the basis is eliminated once, but brackets are still resolved one
        # at a time: the mutated X5 breaks [X1,X4] and nothing after it runs
        pairs = []

        def counting_bracket(X, Y):
            pairs.append((X, Y))
            return lie_bracket(X, Y)

        monkeypatch.setattr(algebra, "lie_bracket", counting_bracket)
        with pytest.raises(NotClosed) as exc:
            structure_constants(_mutated_sl3_fields())
        assert exc.value.pair == (1, 4)
        assert len(pairs) == 3

    def test_scheme_builds_each_witness_bracket_once(self, monkeypatch):
        # [Y2,Y8], the 16 printed [W,V] entries, then one bracket per witness
        # ad_Y3^k(Y6): each iterate is built from the one before it
        pairs = []

        def counting_bracket(X, Y):
            pairs.append((X, Y))
            return lie_bracket(X, Y)

        monkeypatch.setattr(algebra, "lie_bracket", counting_bracket)
        assert verify_scheme().passed
        assert len(pairs) == 1 + 16 + algebra.WITNESS_DEPTH == 23


class TestReports:
    def test_paper_table_report_passes(self):
        report = verify_paper_table()
        assert report.passed
        assert len(report.records) == 28

    def test_isomorphism_report_passes(self):
        report = verify_isomorphism()
        assert report.passed
        # 8 traces + 1 rank + 28 bracket comparisons
        assert len(report.records) == 37

    def test_scheme_report_passes(self):
        report = verify_scheme()
        assert report.passed
        names = [r.name for r in report.records]
        assert "[Y2,Y8]" in names
        assert "ad_Y3^2(Y6) outside span{Y1..Y8}" in names

    def test_mutated_field_fails(self):
        fields = builtin_fields("sl3-family")
        coords = fields[0].coords
        bump = Polynomial(coords, {(1, 0): Fraction(1)})
        x5 = fields[4]
        fields[4] = VectorField(
            [x5.components[0] + bump, x5.components[1]], coords
        )
        report = verify_paper_table(_structure_or_not_closed(fields))
        assert not report.passed
        failing = [r.name for r in report.records if r.status == "FAIL"]
        assert failing, "mutation must surface as named failing pairs"
        # the failing record names a concrete bracket pair
        assert all(name.startswith("[X") for name in failing)


class TestMatrices:
    def test_traceless_and_independent(self):
        mats = sl3_matrices()
        assert all(M.trace() == 0 for M in mats)

    def test_commutator_example(self):
        # [M1, M8] = -2 M1 mirrors [X1, X8] = -2 X1
        mats = sl3_matrices()
        assert matrix_bracket(mats[0], mats[7]) == mats[0].scale(-2)
        X = builtin_fields("sl3-family")
        assert lie_bracket(X[0], X[7]) == X[0].scale(-2)

    def test_matrix3_immutable(self):
        M = Matrix3([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        with pytest.raises(AttributeError):
            M.rows = ()


class TestAgainstReferenceEliminations:
    @pytest.mark.parametrize("flags", [
        [], ["--all-fields"], ["--mutate-x5"], ["--all-fields", "--mutate-x5"],
    ])
    def test_verify_output_unchanged(self, tmp_path, capsys, monkeypatch, flags):
        """Every verify output is the same when the old eliminations solve."""

        def run(name):
            out_dir = tmp_path / name
            code = main(["verify", *flags, "--output-dir", str(out_dir)])
            files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
            return code, capsys.readouterr().out, files

        fast = run("fast")
        monkeypatch.setattr(exactpoly, "Elimination", reference.ReferenceElimination)
        monkeypatch.setattr(algebra, "Elimination", reference.ReferenceElimination)
        assert run("reference") == fast
        assert set(fast[2]) == {"verify_report.json", "verify_report.txt"}

    @pytest.mark.parametrize("flags", [
        [], ["--all-fields"], ["--mutate-x5"], ["--all-fields", "--mutate-x5"],
    ])
    def test_every_solve_matches_the_reference(self, capsys, monkeypatch, flags):
        """Each (basis, target) verify solves gets the old eliminations' answer."""
        calls = []

        class Recording(exactpoly.Elimination):
            def __init__(self, basis):
                super().__init__(basis)
                self.basis = basis

            def solve(self, target):
                coeffs = super().solve(target)
                calls.append((self.basis, target, coeffs))
                return coeffs

        monkeypatch.setattr(exactpoly, "Elimination", Recording)
        monkeypatch.setattr(algebra, "Elimination", Recording)
        main(["verify", *flags])
        capsys.readouterr()
        assert {coeffs is None for _, _, coeffs in calls} == {True, False}
        for basis, target, coeffs in calls:
            assert coeffs == reference.ReferenceElimination(basis).solve(target)
