"""Inputs whose size a short text hides end in exit 2 with one line, quickly."""

import json
import time

import pytest

from liesuper import cli
from liesuper.cli import main
from liesuper.coeffexpr import MAX_DEPTH, ParseError, parse_expr

REST = ",1/3,2/5,3/7,5/11,1/13,7/3,2/9"


class TestRankDigits:
    @pytest.mark.parametrize("entry", [
        "1e200000",  # ran for over 15 s: Fraction builds 10**200000
        "1e4301",
        "2.5e-4300",
        "0e20000",
        "1_0e4_300",
        "9" * 4300 + "." + "9" * 4300,  # each part within Python's own limit
    ], ids=["1e200000", "1e4301", "2.5e-4300", "0e20000", "1_0e4_300", "long-decimal"])
    def test_entry_needing_too_many_digits_exit2(self, capsys, entry):
        start = time.perf_counter()
        assert main(["rank", "--point", entry + REST]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --point entries must be rationals: ")
        assert captured.err.endswith(f"needs more than {cli.MAX_DIGITS} digits\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("entry", ["1e4300", "1" * 4300, "0.5e1"],
                             ids=["1e4300", "4300-digits", "0.5e1"])
    def test_largest_entries_still_give_a_result(self, capsys, entry):
        assert main(["rank", "--point", entry + REST]) == 0
        assert capsys.readouterr().out.startswith("rank = 8\n")


NESTED = {
    "brackets": "(" * 200 + "t" + ")" * 200,
    "signs": "-" * 3000 + "t",
    "chain": "+".join(["t"] * 3000),
    "calls": "sin(" * 200 + "t" + ")" * 200,
}


class TestNestingDepth:
    @pytest.mark.parametrize("text", NESTED.values(), ids=NESTED.keys())
    def test_parser_refuses(self, text):
        with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels deep"):
            parse_expr(text)

    def test_limit_itself_is_accepted(self):
        assert parse_expr("-" * (MAX_DEPTH - 1) + "t").depth == MAX_DEPTH
        assert parse_expr("+".join(["t"] * MAX_DEPTH)).depth == MAX_DEPTH
        assert parse_expr("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH).depth == 1
        with pytest.raises(ParseError):
            parse_expr("-" * MAX_DEPTH + "t")

    @pytest.mark.parametrize("text", NESTED.values(), ids=NESTED.keys())
    def test_solve_exit2_with_one_line(self, tmp_path, capsys, text):
        cfg = {"family": "mdpi", "coefficients": {"f": text}, "initial": [1, -1],
               "interval": [0, 1], "points": 11}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
