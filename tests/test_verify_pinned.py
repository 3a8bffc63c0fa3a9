"""`liesuper verify` pinned byte for byte in all four modes.

Each mode's `verify_report.txt` is committed under `tests/data/verify/`
(stdout is the same bytes), with the SHA-256 of its `verify_report.json`
and its exit code.  A refactor of the verifier must leave all of them as
they are; regenerate a fixture only when a report is meant to change.
"""

import hashlib
from pathlib import Path

import pytest

from liesuper.cli import main

DATA = Path(__file__).parent / "data" / "verify"

# mode -> (flags, exit code, SHA-256 of verify_report.json)
PINNED = {
    "plain": (
        [], 0,
        "e845aebc08ca0eb2d88a8db6c97b9d84c2e10a807ea734c90637aec1e2c35557",
    ),
    "all-fields": (
        ["--all-fields"], 0,
        "160e7a971e290c4e526111fca0ea12b138b573a321d77c7b5fb6c0a53050203f",
    ),
    "mutate-x5": (
        ["--mutate-x5"], 1,
        "d1c72f2695064519250dee07656eb5d966f41d47ba8a98818bc0efb33fe0c21f",
    ),
    "all-fields-mutate-x5": (
        ["--all-fields", "--mutate-x5"], 1,
        "3e9a9db1273f4107ebe378de51f72b51af2cd798fcf337d18cc06746cecfcba7",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_verify_output_is_pinned(mode, tmp_path, capsys):
    flags, exit_code, json_sha256 = PINNED[mode]
    code = main(["verify", *flags, "--output-dir", str(tmp_path)])
    captured = capsys.readouterr()
    text = (DATA / f"{mode}.txt").read_bytes()

    assert code == exit_code
    assert captured.out.encode() == text
    assert captured.err == ""
    assert (tmp_path / "verify_report.txt").read_bytes() == text
    json_bytes = (tmp_path / "verify_report.json").read_bytes()
    assert hashlib.sha256(json_bytes).hexdigest() == json_sha256
