"""The CLI's help and argument-error texts, pinned byte for byte.

`valdef -h` and `valdef <command> -h` print their help on stdout and exit
0; each malformed command line in MALFORMED prints argparse's usage and
error line on stderr and exits 2.  `cli_texts.json` holds every stream and
exit code, recorded with COLUMNS=80 so that argparse wraps the same way on
every terminal.  argparse's wording changes between Python versions, so
the file also records the version it was written under, and another
version skips the comparison.

After a deliberate change of these texts, regenerate the file with

    PYTHONPATH=src python tests/test_cli_texts.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from valdef.cli import main

TEXTS = Path(__file__).resolve().parent / "cli_texts.json"
COMMANDS = ("check", "cohomology", "decompose", "deform", "rigidity", "gass", "poisson")
MALFORMED = [
    [],
    ["frobnicate", "a.json"],
    ["cohomology", "a.json", "--deg", "2"],
    ["cohomology", "a.json", "--deg", "4", "--coeff", "adjoint"],
    ["cohomology", "a.json", "--deg", "two", "--coeff", "adjoint"],
    ["cohomology", "--", "a.json", "--deg", "2", "--coeff", "adjoint"],
    ["check", "a.json", "b.json"],
    ["check", "a.json", "--bogus"],
    ["check", "a.json", "--pretty=1"],
    ["--cap", "3", "check", "a.json"],
    ["decompose", "v.json", "--cap"],
    ["deform", "frob", "d.json"],
    ["deform", "verify", "d.json", "--k", "1.5"],
    ["gass", "check", "--group", "T12"],
    ["gass", "check", "a.json", "--group", "T99"],
    ["poisson", "verify"],
]
CASES = [["-h"]] + [[name, "-h"] for name in COMMANDS] + MALFORMED


def _call(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"argv": list(argv), "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def texts() -> dict:
    return {
        "python": list(sys.version_info[:2]),
        "cases": [_call(argv) for argv in CASES],
    }


def test_help_and_error_texts_unchanged(monkeypatch):
    want = json.loads(TEXTS.read_text())
    if want["python"] != list(sys.version_info[:2]):
        pytest.skip(f"texts recorded under Python {want['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    got = texts()
    assert [c["argv"] for c in got["cases"]] == [c["argv"] for c in want["cases"]]
    for g, w in zip(got["cases"], want["cases"]):
        assert g == w, g["argv"]
    # every help exits 0 and every malformed line exits 2 with one error line
    for case in got["cases"]:
        if "-h" in case["argv"]:
            assert case["code"] == 0 and case["stderr"] == ""
        else:
            assert case["code"] == 2 and case["stdout"] == ""
            assert case["stderr"].splitlines()[-1].startswith("valdef")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    TEXTS.write_text(json.dumps(texts(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(CASES)} cases to {TEXTS}")
