"""CLI surface: exit codes, JSON output, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valdef.catalog as catalog
from valdef import io
from valdef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    # a new file: truncating one in place can take ~50 ms on some file systems
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    return str(path)


SL2_DOC = {
    "dim": 3,
    "kind": "lie",
    "table": [
        {"i": 0, "j": 1, "out": [{"k": 1, "c": "2"}]},
        {"i": 0, "j": 2, "out": [{"k": 2, "c": "-2"}]},
        {"i": 1, "j": 2, "out": [{"k": 0, "c": "1"}]},
    ],
}

NON_LIE_DOC = {
    "dim": 3,
    "kind": "lie",
    "table": [
        {"i": 0, "j": 1, "out": [{"k": 0, "c": "1"}]},
        {"i": 0, "j": 2, "out": [{"k": 1, "c": "1"}]},
    ],
}


def test_check_ok_and_witness(tmp_path, capsys):
    code, doc, _ = run(capsys, "check", write(tmp_path, "sl2.json", SL2_DOC))
    assert code == 0 and doc["ok"]
    code, doc, _ = run(capsys, "check", write(tmp_path, "bad.json", NON_LIE_DOC))
    assert code == 1 and not doc["ok"]
    assert doc["detail"]["witness"]["triple"] == [0, 1, 2]


def test_check_malformed_rational(tmp_path, capsys):
    bad = {
        "dim": 2,
        "kind": "lie",
        "table": [{"i": 0, "j": 1, "out": [{"k": 0, "c": "1/0"}]}],
    }
    code, doc, err = run(capsys, "check", write(tmp_path, "bad.json", bad))
    assert code == 2 and not doc["ok"]
    assert "denominator" in err


def test_cohomology_values(tmp_path, capsys):
    ab2 = {"dim": 2, "kind": "lie", "table": []}
    code, doc, _ = run(
        capsys,
        "cohomology",
        write(tmp_path, "ab2.json", ab2),
        "--deg",
        "2",
        "--coeff",
        "adjoint",
    )
    assert code == 0 and doc["detail"]["dim_H"] == 2
    code, doc, _ = run(
        capsys,
        "cohomology",
        write(tmp_path, "sl2.json", SL2_DOC),
        "--deg",
        "2",
        "--coeff",
        "adjoint",
    )
    assert doc["detail"]["dim_H"] == 0
    code, doc, _ = run(
        capsys, "cohomology", catalog.path("r2"), "--deg", "2", "--coeff", "trivial"
    )
    assert doc["detail"]["dim_H"] == 0


def test_cohomology_bad_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", catalog.path("r2"), "--deg", "5", "--coeff", "adjoint"])
    assert exc.value.code == 2


def test_cohomology_degree_three(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    code, doc, _ = run(capsys, "cohomology", path, "--deg", "3", "--coeff", "trivial")
    assert code == 0
    assert doc["detail"] == {
        "coeff": "trivial",
        "degree": 3,
        "dim_H": 1,
        "dim_coboundaries": 0,
        "dim_cocycles": 1,
    }


def test_parser_built_once_and_errors_unchanged(capsys):
    from valdef.cli import build_parser

    assert build_parser() is build_parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["cohomology", catalog.path("r2"), "--deg", "4", "--coeff", "adjoint"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "invalid choice: 4 (choose from 1, 2, 3)" in errors[0]
    # a failed parse leaves the cached parser usable
    code, doc, _ = run(
        capsys, "cohomology", catalog.path("r2"), "--deg", "1", "--coeff", "trivial"
    )
    assert code == 0 and doc["detail"]["degree"] == 1


@pytest.mark.parametrize("value", ["٢", "３", "1_0", " 3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "r2.json", "--coeff", "adjoint", "--deg"],
        ["decompose", "v.json", "--cap"],
        ["deform", "polycheck", "d.json", "--poly", "[]", "--k"],
    ],
    ids=["deg", "cap", "k"],
)
def test_integer_options_must_be_ascii(capsys, argv, value):
    """int() reads an Arabic-Indic or fullwidth digit, "1_0" as 10 and " 3"
    as 3; an integer option takes only an ASCII [+-]?[0-9]+, on the fast
    path and in argparse alike."""
    from valdef.cli import _fast_parse

    assert _fast_parse(argv + [value]) is None
    with pytest.raises(SystemExit) as exc:
        main(argv + [value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    line = err.splitlines()[-1]
    assert line.endswith(f"error: argument {argv[-1]}: invalid int value: {value!r}")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "a.json"],
        ["cohomology", "a.json", "--deg", "2", "--coeff", "adjoint"],
        ["rigidity", "a.json", "--asserted-rigid"],
        ["gass", "check", "a.json", "--group", "Id"],
        ["poisson", "verify", "p.json"],
    ],
    ids=["check", "cohomology", "rigidity", "gass-check", "poisson-verify"],
)
def test_cap_is_refused_where_no_cap_is_read(capsys, argv):
    """A command whose tables hold no series takes no --cap: argparse's
    unknown-option line and exit 2, nothing on stdout, on both paths."""
    from valdef.cli import _fast_parse

    argv = argv + ["--cap", "3"]
    assert _fast_parse(argv) is None
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].endswith("error: unrecognized arguments: --cap 3")


def test_cap_is_read_by_decompose_and_every_deform_action(tmp_path, capsys):
    """decompose and each deform action take --cap, on the fast path and in
    argparse alike, and a file without its own cap is read at it."""
    from valdef.cli import SPEC, _fast_parse

    deform = write(tmp_path, "d.json", {"base": LIE2, "terms": []})
    endo = write(tmp_path, "f.json", {"matrix": [[["1"], ["0"]], [["0"], ["1"]]]})
    tails = {
        "transport": ["--endo", endo],
        "polycheck": ["--poly", '["1"]', "--k", "1"],
    }
    lines = [["decompose", write(tmp_path, "v.json", {"components": [["0", "1"]]})]]
    for action in dict(SPEC["deform"][2])["action"]["choices"]:
        lines.append(["deform", action, deform, *tails.get(action, [])])
    for argv in lines:
        argv = argv + ["--cap", "3"]
        assert _fast_parse(argv).cap == 3 == _argparse_reads(argv)["cap"]
        code, doc, _ = run(capsys, *argv)
        assert code == 0 and doc["cap_used"] == 3, argv


def _argparse_reads(argv):
    """vars() of argparse's namespace for argv, or None when it exits."""
    import contextlib
    import io as stdio

    from valdef.cli import build_parser

    sink = stdio.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def test_fast_path_agrees_with_argparse():
    """Wherever the fast path reads argv, its namespace is argparse's; wherever
    argparse exits (help or a malformed line), the fast path has declined.
    The token lists are well-formed command lines from the spec, shuffled and
    salted with junk: help, abbreviations, "--opt=value", "--", negative and
    non-ASCII numbers, empty and repeated tokens."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from valdef.cli import COMMON, SPEC, _fast_parse

    junk = st.sampled_from(
        ["-h", "--help", "--de", "--deg=2", "--cap=3", "--", "-", "-1", "", "٢", "1_0",
         " 3", "+2", "007", "x y", "a.json", "b.json", "--pretty", "--group", "T12"]
    )

    def value(kw):
        if "choices" in kw:
            return st.sampled_from([str(c) for c in kw["choices"]] + ["0"])
        if kw.get("type") is not None:
            return st.sampled_from(["0", "1", "2", "3", "8", "12", "-2"])
        return st.sampled_from(["f.json", '["1","1"]', ""])

    @st.composite
    def command_lines(draw):
        command = draw(st.sampled_from(sorted(SPEC)))
        words, groups = [], []
        for name, kw in COMMON + SPEC[command][2]:
            if name[0] != "-":
                n = draw(st.integers(1, 3)) if kw.get("nargs") == "+" else 1
                words += [draw(value(kw)) for _ in range(n)]
            elif kw.get("required") or draw(st.booleans()):
                groups.append([name] if "action" in kw else [name, draw(value(kw))])
        groups.insert(draw(st.integers(0, len(groups))), words)
        argv = [command] + [t for group in draw(st.permutations(groups)) for t in group]
        for _ in range(draw(st.integers(0, 2))):  # insert junk or a copy, or delete
            at = draw(st.integers(0, len(argv) - 1))
            if draw(st.integers(0, 3)):
                token = draw(st.one_of(junk, st.sampled_from(argv)))
                argv.insert(at + draw(st.integers(0, 1)), token)
            else:
                del argv[at]
        return argv

    outcomes = []

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(command_lines())
    def check(argv):
        fast, slow = _fast_parse(argv), _argparse_reads(argv)
        outcomes.append((fast is not None, slow is not None))
        if fast is not None:
            assert vars(fast) == slow, argv
        # argparse exits: the fast path declined
        assert slow is not None or fast is None, argv

    check()
    # both paths are exercised: lines the fast path reads, lines argparse refuses
    assert outcomes.count((True, True)) > 100 and outcomes.count((False, False)) > 100


def test_readme_usage_block_matches_the_spec():
    """README's CLI usage block names every command, action and option of
    cli.SPEC, and its `valdef` lines use nothing else: a word there is a
    command, an action, an option with a value it takes, or a FILE.json
    placeholder.  Brackets mark optional words; `#` starts a comment."""
    import re
    import shlex

    from valdef.cli import COMMON, SPEC

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    want, seen = set(), set()
    for command, (_, _, arguments) in SPEC.items():
        for name, kw in COMMON + arguments:
            want |= {name} if name[0] == "-" else {(command, c) for c in kw.get("choices", ())}
        want.add(command)
    for valdef, command, *words in filter(None, lines):
        assert valdef == "valdef" and command in SPEC, words
        seen.add(command)
        arguments = COMMON + SPEC[command][2]
        options = {name: kw for name, kw in arguments if name[0] == "-"}
        actions = {c for name, kw in arguments if name[0] != "-" for c in kw.get("choices", ())}
        words = iter(word.strip("[]") for word in words)
        for word in words:
            if word in options:
                seen.add(word)
                kw = options[word]
                if "action" not in kw:  # the option's value
                    value = kw.get("type", str)(next(words))
                    assert value in kw.get("choices", [value]), (command, word, value)
            elif word in actions:
                seen.add((command, word))
            else:
                assert re.fullmatch(r"[A-Z][A-Z_]*\.json", word), (command, word)
    assert seen == want


def test_internal_error_exit_code(capsys, monkeypatch):
    import valdef.cli as cli
    import valdef.cohomology as cohomology

    def broken(*args):
        raise RuntimeError("planted failure")

    # cmd_cohomology imports cohomology_dim from its module at call time
    monkeypatch.setattr(cohomology, "cohomology_dim", broken)
    code = main(["cohomology", catalog.path("r2"), "--deg", "2", "--coeff", "trivial"])
    out = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert out.out == ""
    assert out.err.startswith("Traceback (most recent call last):")
    assert out.err.rstrip().endswith("RuntimeError: planted failure")


def test_decompose_exit_codes(tmp_path, capsys):
    vec = {"cap": 4, "components": [["0", "1"], ["0", "0", "1"]]}
    code, doc, _ = run(capsys, "decompose", write(tmp_path, "v.json", vec))
    assert code == 0 and doc["detail"]["length"] == 2
    assert doc["detail"]["recomposition_check"] is True

    vec = {"cap": 3, "components": [["0", "1"], ["0", "2"]]}
    code, doc, _ = run(capsys, "decompose", write(tmp_path, "v1.json", vec))
    assert code == 0 and doc["detail"]["length"] == 1

    vec = {"cap": 3, "components": [["1", "1"], ["0", "1"]]}
    code, doc, err = run(capsys, "decompose", write(tmp_path, "v2.json", vec))
    assert code == 2


def test_deform_verify_and_graded(tmp_path, capsys):
    base = {"dim": 3, "kind": "lie", "table": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}]}
    deform = {
        "base": base,
        "cap": 6,
        "terms": [
            {
                "coeff": ["0", "1"],
                "cochain": {
                    "degree": 2,
                    "target": "adjoint",
                    "values": [
                        {"args": [0, 1], "out": [{"k": 0, "c": "1"}]},
                        {"args": [0, 2], "out": [{"k": 1, "c": "1"}]},
                    ],
                },
            },
            {
                "coeff": ["0", "0", "1/2"],
                "cochain": {
                    "degree": 2,
                    "target": "adjoint",
                    "values": [{"args": [0, 2], "out": [{"k": 0, "c": "2"}]}],
                },
            },
        ],
    }
    path = write(tmp_path, "deform.json", deform)
    code, doc, _ = run(capsys, "deform", "verify", path)
    assert code == 0 and doc["ok"] and doc["cap_used"] == 6

    code, doc, _ = run(capsys, "deform", "graded", path)
    assert code == 0 and doc["detail"]["satisfied"]
    assert doc["detail"]["delta_memberships"]["2"]["holds"]
    # the re-decomposition pivot-normalizes phi_2 to half its input scale
    assert doc["detail"]["delta_memberships"]["2"]["coefficients"]["1,1"] == "-1/2"

    broken = dict(deform)
    broken["terms"] = [deform["terms"][0]]
    code, doc, _ = run(capsys, "deform", "verify", write(tmp_path, "b.json", broken))
    assert code == 1 and not doc["ok"]
    assert doc["detail"]["witness"]["residual_orders"] == [2]


def test_deform_graded_reports_a_failing_membership(tmp_path, capsys):
    """A valid deformation whose graded system fails exits 1 with `holds:
    false`: the base r2 + K of test_deform_verify_and_graded moved by the
    gauge transport Id + t N, valid at cap 4.  It decomposes into two terms
    at cap 2, and [phi_1, phi_2] is no multiple of [phi_1, phi_1]."""

    def cochain(*values):
        return [{"args": list(args), "out": [{"k": k, "c": c} for k, c in out]}
                for args, out in values]

    deform = {
        "base": {"dim": 3, "kind": "lie",
                 "table": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}]},
        "cap": 4,
        "terms": [
            {"coeff": ["0", "1"], "cochain": cochain(
                ((0, 1), [(0, "1")]), ((0, 2), [(1, "1")]), ((1, 2), [(1, "-2")]))},
            {"coeff": ["0", "0", "1"], "cochain": cochain(
                ((0, 2), [(0, "1"), (1, "2")]), ((1, 2), [(0, "-2")]))},
            {"coeff": ["0", "0", "0", "1"], "cochain": cochain(((0, 2), [(0, "2")]))},
        ],
    }
    path = write(tmp_path, "deform.json", deform)
    code, doc, _ = run(capsys, "deform", "verify", path)
    assert code == 0 and doc["ok"]

    code, doc, _ = run(capsys, "deform", "graded", path)
    assert code == 1 and doc["ok"] is False and doc["cap_used"] == 2
    detail = doc["detail"]
    assert detail["n_terms"] == 2 and detail["satisfied"] is False
    assert detail["delta_memberships"] == {
        "2": {"coefficients": {"1,1": "-1/2"}, "holds": True}
    }
    assert detail["bracket_memberships"] == {"1,2": {"coefficients": {}, "holds": False}}


def test_deform_decompose_and_transport(tmp_path, capsys):
    base = {"dim": 3, "kind": "lie", "table": []}
    deform = {
        "base": base,
        "cap": 4,
        "terms": [
            {
                "coeff": ["0", "1"],
                "cochain": [{"args": [0, 1], "out": [{"k": 2, "c": "1"}]}],
            }
        ],
    }
    path = write(tmp_path, "d.json", deform)
    code, doc, _ = run(capsys, "deform", "decompose", path)
    assert code == 0 and len(doc["detail"]["terms"]) == 1

    endo = {
        "matrix": [
            [["1"], ["0", "1"], ["0"]],
            [["0"], ["1"], ["0", "2"]],
            [["0"], ["0"], ["1"]],
        ]
    }
    epath = write(tmp_path, "f.json", endo)
    code, doc, _ = run(capsys, "deform", "transport", path, "--endo", epath)
    assert code == 0
    transported = doc["detail"]

    # transporting back by the inverse restores the original single term
    tpath = write(
        tmp_path, "t.json", {"base": base, "cap": transported["cap"], "terms": transported["terms"]}
    )
    code, doc, _ = run(capsys, "deform", "transport", tpath, "--endo", epath, "--inverse")
    assert code == 0
    back = doc["detail"]
    assert back["terms"] == [
        {
            "coeff": ["0", "1", "0", "0", "0"],
            "cochain": {
                "degree": 2,
                "target": "adjoint",
                "values": [{"args": [0, 1], "out": [{"k": 2, "c": "1"}]}],
            },
        }
    ]


def test_deform_polycheck(tmp_path, capsys):
    base = {"dim": 3, "kind": "lie", "table": []}
    deform = {
        "base": base,
        "cap": 4,
        "terms": [
            {
                "coeff": ["0", "1", "-1", "1", "-1"],
                "cochain": [{"args": [0, 1], "out": [{"k": 2, "c": "1"}]}],
            }
        ],
    }
    path = write(tmp_path, "d.json", deform)
    code, doc, _ = run(capsys, "deform", "polycheck", path, "--poly", '["1","1"]', "--k", "1")
    assert code == 0 and doc["ok"]
    code, doc, _ = run(capsys, "deform", "polycheck", path, "--poly", '["1"]', "--k", "1")
    assert code == 1 and not doc["ok"]
    code, doc, _ = run(capsys, "deform", "polycheck", path, "--poly", '["1"]', "--k", "4")
    assert code == 3


def test_rigidity_cli(capsys):
    code, doc, _ = run(capsys, "rigidity", catalog.path("r2"), "--asserted-rigid")
    assert code == 0
    assert doc["detail"]["verdict"] == "no obstruction from H2(g, K)"
    assert doc["detail"]["roots"] == ["1"]
    code, doc, _ = run(capsys, "rigidity", catalog.path("zero_root"), "--asserted-rigid")
    assert doc["detail"]["zero_root"]["consistent"] is True
    code, doc, _ = run(capsys, "rigidity", catalog.path("roots123"))
    assert doc["detail"]["verdict"] == "U(g) not rigid"
    assert "inherited" in doc["detail"]["theorem"]


def test_rigidity_rank2_and_errors(tmp_path, capsys):
    two_torus = {
        "dim": 4,
        "kind": "lie",
        "torus": [0, 1],
        "table": [
            {"i": 0, "j": 2, "out": [{"k": 2, "c": "1"}]},
            {"i": 1, "j": 3, "out": [{"k": 3, "c": "1"}]},
        ],
    }
    code, doc, _ = run(
        capsys, "rigidity", write(tmp_path, "t2.json", two_torus), "--asserted-rigid"
    )
    assert code == 0 and doc["detail"]["verdict"] == "U(g) not rigid"
    assert doc["detail"]["rank"] == 2

    non_adapted = {
        "dim": 3,
        "kind": "lie",
        "torus": [0],
        "table": [{"i": 0, "j": 1, "out": [{"k": 2, "c": "1"}]}],
    }
    code, doc, err = run(
        capsys, "rigidity", write(tmp_path, "na.json", non_adapted), "--asserted-rigid"
    )
    assert code == 2

    no_torus = {"dim": 2, "kind": "lie", "table": []}
    code, doc, _ = run(
        capsys, "rigidity", write(tmp_path, "nt.json", no_torus), "--asserted-rigid"
    )
    assert code == 2


VINBERG_DOC = None


def _vinberg_doc():
    global VINBERG_DOC
    if VINBERG_DOC is None:
        from gens import fraction_table, rational_str, search_tables
        from valdef.nonassoc import SubgroupTag, g_associative_check

        alg = search_tables(
            2,
            lambda a: g_associative_check(a, SubgroupTag.T12)[0]
            and not g_associative_check(a, SubgroupTag.ID)[0],
            max_entries=2,
            limit=1,
        )[0]
        VINBERG_DOC = {
            "dim": 2,
            "kind": "assoc",
            "table": [
                {
                    "i": i,
                    "j": j,
                    "out": [{"k": k, "c": rational_str(c)} for k, c in entry],
                }
                for (i, j), entry in sorted(fraction_table(alg).items())
            ],
        }
    return VINBERG_DOC


def test_gass_cli(tmp_path, capsys):
    kx2 = {
        "dim": 2,
        "kind": "assoc",
        "table": [
            {"i": 0, "j": 0, "out": [{"k": 0, "c": "1"}]},
            {"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]},
            {"i": 1, "j": 0, "out": [{"k": 1, "c": "1"}]},
        ],
    }
    kpath = write(tmp_path, "kx2.json", kx2)
    for group in ("Id", "T12", "T23", "T13", "A3", "S3"):
        code, doc, _ = run(capsys, "gass", "check", kpath, "--group", group)
        assert code == 0 and doc["ok"]

    vpath = write(tmp_path, "vin.json", _vinberg_doc())
    code, doc, _ = run(capsys, "gass", "check", vpath, "--group", "T12")
    assert code == 0
    code, doc, _ = run(capsys, "gass", "check", vpath, "--group", "Id")
    assert code == 1 and "witness" in doc["detail"]

    code, doc, _ = run(capsys, "gass", "tensor", vpath, kpath, "--group", "T12")
    assert code == 0 and doc["ok"]
    assert doc["detail"]["left_g_associative"] and doc["detail"]["right_dual_identity"]

    with pytest.raises(SystemExit) as exc:
        main(["gass", "check", kpath, "--group", "Q8"])
    assert exc.value.code == 2


def _assoc_doc(dim, entries):
    """An assoc-kind file of the (i, j, k, c) entries."""
    table = [{"i": i, "j": j, "out": [{"k": k, "c": c}]} for i, j, k, c in entries]
    return {"dim": dim, "kind": "assoc", "table": table}


KX2_DOC = _assoc_doc(2, [(0, 0, 0, "1"), (0, 1, 1, "1"), (1, 0, 1, "1")])
# xy = z/2: every triple product is zero, so G-associative for every G
HALF_TRIPLE_DOC = _assoc_doc(3, [(0, 1, 2, "1/2")])
# e1 e0 = e1, e1 e1 = e0: fails all but the S3 identity tensored with kx2
TWIST_DOC = _assoc_doc(2, [(1, 0, 1, "1"), (1, 1, 0, "1")])


def test_gass_tensor_scans_no_product_triple(tmp_path, capsys, monkeypatch):
    """A passing `gass tensor` is decided on its two factors: with
    `g_associative_check` refusing every table of the product's dim 6, it
    still prints the bytes of the product scan and exits 0."""
    import valdef.nonassoc as nonassoc

    check = nonassoc.g_associative_check

    def factors_only(a, tag, signed=True):
        if a.dim == 6:
            raise AssertionError("the product table was scanned")
        return check(a, tag, signed)

    monkeypatch.setattr(nonassoc, "g_associative_check", factors_only)
    left = write(tmp_path, "half.json", HALF_TRIPLE_DOC)
    right = write(tmp_path, "kx2.json", KX2_DOC)
    code = main(["gass", "tensor", left, right, "--group", "T12"])
    out = capsys.readouterr()
    want = (
        '{"detail":{"dim":6,"group":"T12","left_g_associative":true,'
        '"right_dual_identity":true,"signed":true,"table":['
        '{"i":0,"j":2,"out":[{"c":"1/2","k":4}]},'
        '{"i":0,"j":3,"out":[{"c":"1/2","k":5}]},'
        '{"i":1,"j":2,"out":[{"c":"1/2","k":5}]}]},"ok":true}\n'
    )
    assert (code, out.out, out.err) == (0, want, "")


def test_gass_tensor_failure_names_the_product_witness(tmp_path, capsys):
    """A failing `gass tensor` prints the first failing triple of the built
    table, as the product scan alone did, and exits 1."""
    twist = write(tmp_path, "twist.json", TWIST_DOC)
    kx2 = write(tmp_path, "kx2.json", KX2_DOC)
    cases = [
        (
            [twist, kx2, "--group", "T23"],
            '{"detail":{"dim":4,"group":"T23","left_g_associative":false,'
            '"right_dual_identity":true,"signed":true,"table":['
            '{"i":2,"j":0,"out":[{"c":"1","k":2}]},{"i":2,"j":1,"out":[{"c":"1","k":3}]},'
            '{"i":2,"j":2,"out":[{"c":"1","k":0}]},{"i":2,"j":3,"out":[{"c":"1","k":1}]},'
            '{"i":3,"j":0,"out":[{"c":"1","k":3}]},{"i":3,"j":2,"out":[{"c":"1","k":1}]}],'
            '"witness":{"triple":[2,0,2]}},"ok":false}\n',
        ),
        (
            [kx2, twist, "--group", "S3", "--unsigned"],
            '{"detail":{"dim":4,"group":"S3","left_g_associative":true,'
            '"right_dual_identity":false,"signed":false,"table":['
            '{"i":1,"j":0,"out":[{"c":"1","k":1}]},{"i":1,"j":1,"out":[{"c":"1","k":0}]},'
            '{"i":1,"j":2,"out":[{"c":"1","k":3}]},{"i":1,"j":3,"out":[{"c":"1","k":2}]},'
            '{"i":3,"j":0,"out":[{"c":"1","k":3}]},{"i":3,"j":1,"out":[{"c":"1","k":2}]}],'
            '"witness":{"triple":[0,0,1]}},"ok":false}\n',
        ),
    ]
    for argv, want in cases:
        code = main(["gass", "tensor", *argv])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (1, want, "")


def test_gass_tensor_disagreeing_checks_are_internal(tmp_path, capsys, monkeypatch):
    """A product whose factor criterion fails while its product scan passes
    is a bug, not a verdict: exit 4, the traceback and nothing on stdout."""
    import valdef.nonassoc as nonassoc

    left = write(tmp_path, "half.json", HALF_TRIPLE_DOC)
    right = write(tmp_path, "kx2.json", KX2_DOC)
    code, doc, _ = run(capsys, "gass", "tensor", left, right, "--group", "T12")
    assert code == 0 and doc["ok"] is True
    monkeypatch.setattr(nonassoc, "tensor_g_associative", lambda *args: False)
    code = main(["gass", "tensor", left, right, "--group", "T12"])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("Traceback (most recent call last):")
    assert out.err.rstrip().endswith(
        "RuntimeError: the factor and product G-checks disagree"
    )


def test_poisson_tensor_contracts_no_product_table(tmp_path, capsys, monkeypatch):
    """`poisson tensor` verifies the factors and reads the structure it
    builds against the Kronecker formula: every table it contracts, by
    `nested_products` or `jacobi_sums`, is a factor's (dim 3 here, the
    product's dim 9)."""
    import valdef.nonassoc as nonassoc

    seen = []
    nest, jacobi = nonassoc.nested_products, nonassoc.jacobi_sums

    def spy_nest(packed, inner, left):
        seen.append(inner.dim)
        return nest(packed, inner, left)

    def spy_jacobi(outer, inner=None):
        seen.append(outer.dim)
        return jacobi(outer, inner)

    monkeypatch.setattr(nonassoc, "nested_products", spy_nest)
    monkeypatch.setattr(nonassoc, "jacobi_sums", spy_jacobi)
    p3 = write(tmp_path, "p3.json", POISSON3)
    code, doc, _ = run(capsys, "poisson", "tensor", p3, p3)
    assert code == 0 and doc["detail"]["dim"] == 9
    assert seen and set(seen) == {3}


POISSON3 = {
    "dim": 3,
    "kind": "poisson",
    "assoc_table": [
        {"i": 0, "j": 0, "out": [{"k": 0, "c": "1"}]},
        {"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]},
        {"i": 1, "j": 0, "out": [{"k": 1, "c": "1"}]},
        {"i": 0, "j": 2, "out": [{"k": 2, "c": "1"}]},
        {"i": 2, "j": 0, "out": [{"k": 2, "c": "1"}]},
    ],
    "bracket_table": [
        {"i": 1, "j": 2, "out": [{"k": 1, "c": "1"}]},
        {"i": 2, "j": 1, "out": [{"k": 1, "c": "-1"}]},
    ],
}


def test_poisson_cli(tmp_path, capsys):
    pdoc = POISSON3
    ppath = write(tmp_path, "p.json", pdoc)
    code, doc, _ = run(capsys, "poisson", "verify", ppath)
    assert code == 0 and doc["ok"]
    code, doc, _ = run(capsys, "poisson", "tensor", ppath, ppath)
    assert code == 0 and doc["detail"]["dim"] == 9 and doc["detail"]["verified"]
    code, doc, _ = run(capsys, "poisson", "opposite", ppath)
    assert code == 0 and doc["detail"]["verified"]

    bad = dict(pdoc)
    bad["bracket_table"] = [
        {"i": 1, "j": 2, "out": [{"k": 0, "c": "1"}]},
        {"i": 2, "j": 1, "out": [{"k": 0, "c": "-1"}]},
    ]
    bpath = write(tmp_path, "bad.json", bad)
    code, doc, _ = run(capsys, "poisson", "verify", bpath)
    assert code == 1 and doc["detail"]["witness"]["axiom"] == "Leibniz rule fails"


def test_deform_base_as_path(tmp_path, capsys):
    base = {"dim": 2, "kind": "lie", "table": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}]}
    write(tmp_path, "base.json", base)
    deform = {
        "base": "base.json",
        "cap": 3,
        "terms": [
            {"coeff": ["0", "1"], "cochain": [{"args": [0, 1], "out": [{"k": 0, "c": "1"}]}]}
        ],
    }
    code, doc, _ = run(capsys, "deform", "verify", write(tmp_path, "d.json", deform))
    assert code == 0 and doc["ok"]


def test_lie_file_rejects_lower_triangle(tmp_path, capsys):
    bad = {
        "dim": 2,
        "kind": "lie",
        "table": [{"i": 1, "j": 0, "out": [{"k": 0, "c": "1"}]}],
    }
    code, doc, err = run(capsys, "check", write(tmp_path, "bad.json", bad))
    assert code == 2 and "i < j" in err


def test_output_deterministic(tmp_path, capsys):
    path = write(tmp_path, "sl2.json", SL2_DOC)
    main(["check", path])
    first = capsys.readouterr().out
    main(["check", path])
    second = capsys.readouterr().out
    assert first == second


def test_missing_file_is_exit_2(capsys):
    code, doc, err = run(capsys, "check", "/nonexistent/file.json")
    assert code == 2


ZERO_ROOT_RIGID = (
    '{"detail":{"dim_H2_trivial":1,"note":"informational: for solvable rigid '
    "rank-1 algebras, 0 has been conjectured never to be a root; this report "
    'does not assume it","rank":1,"roots":["1","0"],"theorem":"rank 1 with '
    'nonzero H2(g, K)","verdict":"U(g) not rigid","zero_root":'
    '{"certificate_closed":true,"certificate_nontrivial":true,"consistent":true,'
    '"dim_H2_trivial":1,"zero_is_root":true}},"ok":true}\n'
)


@pytest.mark.parametrize("asserted, calls", [(True, 1), (False, 1)])
def test_rigidity_computes_h2_once(capsys, monkeypatch, asserted, calls):
    import valdef.rigidity as rigidity

    seen = []
    original = rigidity.cohomology_dim

    def counting(*args):
        seen.append(args[1:])
        return original(*args)

    monkeypatch.setattr(rigidity, "cohomology_dim", counting)
    argv = ["rigidity", catalog.path("zero_root")]
    if asserted:
        argv.append("--asserted-rigid")
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert seen == [(2, "trivial")] * calls
    if asserted:
        assert out == ZERO_ROOT_RIGID


# [e0, e1] = -1/2 e1 with e2 central (roots -1/2 and 0), and the Jordan block
# [e0, e1] = e1 + e2, [e0, e2] = e2, on which ad e0 is not diagonal
RIGIDITY_TABLES = {
    "adapted": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "-1/2"}]}],
    "jordan": [
        {"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}, {"k": 2, "c": "1"}]},
        {"i": 0, "j": 2, "out": [{"k": 2, "c": "1"}]},
    ],
}
INHERITED = (
    '{"detail":{"dim_H2_trivial":null,"rank":%d,"roots":null,"theorem":"base not '
    'rigid, inherited","verdict":"U(g) not rigid"%s},"ok":true}\n'
)
RANK_2 = (
    '{"detail":{"dim_H2_trivial":null,"rank":2,"roots":null,"theorem":"rank at '
    'least 2","verdict":"U(g) not rigid"},"ok":true}\n'
)
RANK_0 = '{"error":"rank 0 torus; root extraction needs rank 1","ok":false}\n'
NOT_DIAGONAL = (
    '{"error":"[e0, e1] has a component on e2: ad X is not diagonal in this '
    'basis","ok":false}\n'
)
ZERO_ROOT_BLOCK = (
    ',"zero_root":{"certificate_closed":true,"certificate_nontrivial":true,'
    '"consistent":true,"dim_H2_trivial":1,"zero_is_root":true}'
)
# (table, torus, asserted) -> (exit code, stdout)
RIGIDITY_CASES = {
    ("adapted", (), False): (0, INHERITED % (0, "")),
    ("adapted", (), True): (2, RANK_0),
    ("adapted", (0,), False): (0, INHERITED % (1, ZERO_ROOT_BLOCK)),
    ("adapted", (0,), True): (
        0,
        '{"detail":{"dim_H2_trivial":1,"note":"informational: for solvable rigid '
        "rank-1 algebras, 0 has been conjectured never to be a root; this report "
        'does not assume it","rank":1,"roots":["-1/2","0"],"theorem":"rank 1 with '
        'nonzero H2(g, K)","verdict":"U(g) not rigid"' + ZERO_ROOT_BLOCK + '},"ok":true}\n',
    ),
    ("adapted", (0, 1), False): (0, INHERITED % (2, "")),
    ("adapted", (0, 1), True): (0, RANK_2),
    ("jordan", (), False): (0, INHERITED % (0, "")),
    ("jordan", (), True): (2, RANK_0),
    ("jordan", (0,), False): (2, NOT_DIAGONAL),
    ("jordan", (0,), True): (2, NOT_DIAGONAL),
    ("jordan", (0, 1), False): (0, INHERITED % (2, "")),
    ("jordan", (0, 1), True): (0, RANK_2),
}


@pytest.mark.parametrize("case", sorted(RIGIDITY_CASES))
def test_rigidity_torus_ranks_and_flags(tmp_path, capsys, case):
    """Each torus rank 0, 1 and 2 on an adapted and a non-adapted dim-3
    table, with and without --asserted-rigid: the exact stdout and exit
    code, and on an error its one stderr line.  An asserted rank-0 torus
    is refused before the basis is read, a non-diagonal rank-1 torus under
    either flag, and a rank-2 torus is answered by rule alone."""
    name, torus, asserted = case
    doc = {"dim": 3, "kind": "lie", "torus": list(torus), "table": RIGIDITY_TABLES[name]}
    argv = ["rigidity", write(tmp_path, "a.json", doc)]
    code = main(argv + ["--asserted-rigid"] * asserted)
    out = capsys.readouterr()
    want_code, want_out = RIGIDITY_CASES[case]
    assert (code, out.out) == (want_code, want_out)
    assert out.err == ("" if code == 0 else f"error: {json.loads(want_out)['error']}\n")


LIE2 = {"dim": 2, "kind": "lie", "table": []}
# [e0,e1] = e0, [e0,e2] = e0, [e1,e2] = e1: the Jacobi sum on (0,1,2) is -e0
NOT_JACOBI = {
    "dim": 3,
    "kind": "lie",
    "table": [
        {"i": 0, "j": 1, "out": [{"k": 0, "c": "1"}]},
        {"i": 0, "j": 2, "out": [{"k": 0, "c": "1"}]},
        {"i": 1, "j": 2, "out": [{"k": 1, "c": "1"}]},
    ],
}
DEFORM = {"base": LIE2, "cap": 3, "terms": []}
VECTOR = {"cap": 3, "components": [["0", "1"]]}
COH = ["--deg", "2", "--coeff", "adjoint"]
# Id + H with constant H = diag(1, 0): not unipotent
NON_UNIPOTENT = {"cap": 4, "matrix": [[["2"], ["0"]], [["0"], ["1"]]]}


# the field K as a one-dimensional algebra, associative and Poisson
ASSOC1 = {"dim": 1, "kind": "assoc", "table": [{"i": 0, "j": 0, "out": [{"k": 0, "c": "1"}]}]}
POISSON1 = {
    "dim": 1,
    "kind": "poisson",
    "assoc_table": ASSOC1["table"],
    "bracket_table": [],
}


# every integer field a numeric string; rigidity --asserted-rigid used to
# read it and print a full report with exit 0
STRING_INTS = {
    "dim": "3",
    "kind": "lie",
    "table": [{"i": "0", "j": " 1 ", "out": [{"k": "1", "c": "1"}]}],
    "torus": ["0"],
}


def _term(cochain):
    return dict(DEFORM, terms=[{"coeff": ["0", "1"], "cochain": cochain}])


# (argv with @name standing for the path of file name, files, words of the reason)
# (literal, printed) constant terms
CONSTANT_TERMS = (("-1/2", "-1/2"), ("10/4", "5/2"), ("3", "3"), ("-6/3", "-2"))

MALFORMED = [
    (["check", "@a"], {"a": dict(LIE2, torus=["a"])}, "torus index"),
    (["rigidity", "@a", "--asserted-rigid"], {"a": dict(LIE2, torus=["a"])}, "torus index"),
    (["rigidity", "@a", "--asserted-rigid"], {"a": dict(LIE2, torus=[5])}, "outside 0..1"),
    (["rigidity", "@a"], {"a": dict(LIE2, torus=[0, 0])}, "repeats"),
    (["rigidity", "@a"], {"a": dict(LIE2, torus=0)}, "torus must be an array"),
    (["check", "@a"], {"a": dict(LIE2, dim=-1)}, "dim must be at least 1"),
    (["check", "@a"], {"a": dict(LIE2, dim=0)}, "dim must be at least 1"),
    (["check", "@a"], {"a": dict(LIE2, dim="two")}, "dim must be an integer"),
    (["cohomology", "@a"] + COH, {"a": dict(LIE2, dim=-1)}, "dim must be at least 1"),
    (["check", "@a"], {"a": dict(LIE2, basis=5)}, "basis must be an array"),
    (["decompose", "@v"], {"v": dict(VECTOR, cap="x")}, "cap must be an integer"),
    (["decompose", "@v"], {"v": dict(VECTOR, cap=-2)}, "cap must be non-negative, got -2"),
    (["decompose", "@v"], {"v": dict(VECTOR, cap=1e400)}, "cap must be an integer"),
    (["decompose", "--cap", "-2", "@v"], {"v": {"components": [["0"]]}}, "non-negative"),
    (["deform", "verify", "@d"], {"d": dict(DEFORM, cap="x")}, "cap must be an integer"),
    (["deform", "verify", "@d"], {"d": dict(DEFORM, cap=-1)}, "non-negative"),
    (["deform", "verify", "@d"], {"d": dict(DEFORM, terms=5)}, "'terms' must be an array"),
    (
        ["deform", "verify", "@d"],
        {"d": _term({"degree": "x", "values": []})},
        "cochain degree must be an integer",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": ["a", 1], "out": []}])},
        "cochain args index must be an integer",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f"],
        {"d": DEFORM, "f": {"cap": "x", "matrix": []}},
        "cap must be an integer",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f"],
        {"d": DEFORM, "f": {"cap": -3, "matrix": []}},
        "non-negative",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f"],
        {"d": DEFORM, "f": {"matrix": 5}},
        "must be 2x2",
    ),
    # --inverse checks unipotency before inverting; a Neumann sum of (-H)^i
    # would give Id here at even caps (cap 4) and constant term 0 at odd ones
    (
        ["deform", "transport", "@d", "--endo", "@f", "--inverse"],
        {"d": DEFORM, "f": NON_UNIPOTENT},
        "(0,0) has constant term 2",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f", "--inverse"],
        {"d": dict(DEFORM, cap=4), "f": NON_UNIPOTENT},
        "(0,0) has constant term 2",
    ),
    # a negative out index must not wrap to the end of the vector
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": [0, 1], "out": [{"k": -1, "c": "1"}]}])},
        "cochain out index -1 outside 0..1",
    ),
    (
        ["deform", "decompose", "@d"],
        {"d": _term([{"args": [0, 1], "out": [{"k": -1, "c": "1"}]}])},
        "cochain out index -1 outside 0..1",
    ),
    (
        ["deform", "verify", "@d"],
        {
            "d": _term(
                [
                    {"args": [0, 1], "out": [{"k": 0, "c": "1"}]},
                    {"args": [0, 1], "out": [{"k": 1, "c": "1"}]},
                ]
            )
        },
        "duplicate cochain entry for args [0, 1]",
    ),
    # a repeated k in one out list is rejected, not read as its last cell
    (
        ["check", "@a"],
        {
            "a": dict(
                LIE2, table=[{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}, {"k": 1, "c": "5"}]}]
            )
        },
        "table entry (0,1) repeats out index 1",
    ),
    (
        ["poisson", "verify", "@a"],
        {
            "a": {
                "dim": 2,
                "kind": "poisson",
                "assoc_table": [],
                "bracket_table": [
                    {"i": 0, "j": 1, "out": [{"k": 0, "c": "1"}, {"k": 0, "c": "0"}]}
                ],
            }
        },
        "bracket_table entry (0,1) repeats out index 0",
    ),
    (
        ["deform", "decompose", "@d"],
        {"d": _term([{"args": [0, 1], "out": [{"k": 0, "c": "2"}, {"k": 0, "c": "1"}]}])},
        "cochain entry for args [0, 1] repeats out index 0",
    ),
    # a table failing Jacobi has no cohomology and no roots to report
    (
        ["cohomology", "@a", "--deg", "1", "--coeff", "adjoint"],
        {"a": NOT_JACOBI},
        "fails the Jacobi identity at triple [0, 1, 2]",
    ),
    (
        ["rigidity", "@a", "--asserted-rigid"],
        {"a": dict(NOT_JACOBI, torus=[0])},
        "fails the Jacobi identity at triple [0, 1, 2]",
    ),
    # booleans and fractional numbers are not read as integers
    (
        ["check", "@a"],
        {"a": dict(LIE2, dim=2, table=[{"i": 0.7, "j": 1.9, "out": [{"k": 1.2, "c": "1"}]}])},
        "table i must be an integer, got 0.7",
    ),
    (
        ["check", "@a"],
        {"a": dict(LIE2, table=[{"i": 0, "j": 1, "out": [{"k": True, "c": "1"}]}])},
        "table out index must be an integer, got True",
    ),
    (["check", "@a"], {"a": dict(LIE2, dim=True)}, "dim must be an integer, got True"),
    (["check", "@a"], {"a": dict(LIE2, dim=2.5)}, "dim must be an integer, got 2.5"),
    (["check", "@a"], {"a": dict(LIE2, torus=[0.5])}, "torus index must be an integer"),
    (["decompose", "@v"], {"v": dict(VECTOR, cap=False)}, "cap must be an integer"),
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": [0, True], "out": []}])},
        "cochain args index must be an integer, got True",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": [0, 1], "out": [{"k": 0.5, "c": "1"}]}])},
        "cochain out index must be an integer, got 0.5",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": _term({"degree": 2.5, "values": []})},
        "cochain degree must be an integer",
    ),
    # --poly must be an array: a string or an object is not read item by item
    (
        ["deform", "polycheck", "@d", "--poly", '"12"', "--k", "1"],
        {"d": DEFORM},
        "--poly must be a JSON array of rationals",
    ),
    (
        ["deform", "polycheck", "@d", "--poly", '{"1":5}', "--k", "1"],
        {"d": DEFORM},
        "--poly must be a JSON array of rationals",
    ),
    (
        ["deform", "polycheck", "@d", "--poly", "5", "--k", "1"],
        {"d": DEFORM},
        "--poly must be a JSON array of rationals",
    ),
    # integers are JSON numbers: a numeric string is refused, not parsed
    (
        ["rigidity", "@a", "--asserted-rigid"],
        {"a": STRING_INTS},
        "dim must be an integer, got '3'",
    ),
    (
        ["rigidity", "@a", "--asserted-rigid"],
        {"a": dict(STRING_INTS, dim=3, torus=[0])},
        "table i must be an integer, got '0'",
    ),
    (
        ["check", "@a"],
        {"a": dict(LIE2, table=[{"i": 0, "j": " 1 ", "out": []}])},
        "table j must be an integer, got ' 1 '",
    ),
    (
        ["check", "@a"],
        {"a": dict(LIE2, table=[{"i": 0, "j": 1, "out": [{"k": "1", "c": "1"}]}])},
        "table out index must be an integer, got '1'",
    ),
    (
        ["rigidity", "@a", "--asserted-rigid"],
        {"a": dict(LIE2, torus=["0"])},
        "torus index must be an integer, got '0'",
    ),
    (["decompose", "@v"], {"v": dict(VECTOR, cap="3")}, "cap must be an integer, got '3'"),
    (["deform", "verify", "@d"], {"d": dict(DEFORM, cap="3")}, "cap must be an integer, got '3'"),
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": ["0", 1], "out": []}])},
        "cochain args index must be an integer, got '0'",
    ),
    # dims and caps from outside input are bounded before anything is allocated
    (
        ["check", "@a"],
        {"a": dict(LIE2, dim=io.MAX_DIM + 1)},
        f"dim {io.MAX_DIM + 1} exceeds the largest supported dim {io.MAX_DIM}",
    ),
    (["check", "@a"], {"a": dict(LIE2, dim=10**30)}, "exceeds the largest supported dim"),
    (["check", "@a"], {"a": dict(LIE2, dim=1e300)}, "exceeds the largest supported dim"),
    (
        ["poisson", "verify", "@a"],
        {"a": {"dim": 1e300, "kind": "poisson", "assoc_table": [], "bracket_table": []}},
        "exceeds the largest supported dim",
    ),
    (
        ["decompose", "@v"],
        {"v": dict(VECTOR, cap=io.MAX_CAP + 1)},
        f"cap {io.MAX_CAP + 1} exceeds the largest supported cap {io.MAX_CAP}",
    ),
    (["decompose", "@v"], {"v": dict(VECTOR, cap=1e300)}, "exceeds the largest supported cap"),
    (
        ["decompose", "--cap", str(io.MAX_CAP + 1), "@v"],
        {"v": {"components": [["0"]]}},
        "exceeds the largest supported cap",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": dict(DEFORM, cap=io.MAX_CAP + 1)},
        "exceeds the largest supported cap",
    ),
    (["deform", "verify", "@d"], {"d": dict(DEFORM, cap=1e300)}, "exceeds the largest supported cap"),
    (
        ["deform", "transport", "@d", "--endo", "@f"],
        {"d": DEFORM, "f": {"cap": io.MAX_CAP + 1, "matrix": []}},
        "exceeds the largest supported cap",
    ),
    # every file named is read: an action taking one file refuses two
    (
        ["gass", "check", "@a", "@b", "--group", "Id"],
        {"a": ASSOC1, "b": {}},
        "gass check needs one algebra file, got 2",
    ),
    (
        ["gass", "dual", "@a", "@b", "--group", "T12"],
        {"a": ASSOC1, "b": {}},
        "gass dual needs one algebra file, got 2",
    ),
    (
        ["gass", "tensor", "@a", "--group", "Id"],
        {"a": ASSOC1},
        "gass tensor needs two algebra files, got 1",
    ),
    (
        ["poisson", "verify", "@a", "@b"],
        {"a": POISSON1, "b": {}},
        "poisson verify needs one poisson file, got 2",
    ),
    (
        ["poisson", "opposite", "@a", "@b"],
        {"a": POISSON1, "b": {}},
        "poisson opposite needs one poisson file, got 2",
    ),
    (
        ["poisson", "tensor", "@a", "@a", "@a"],
        {"a": POISSON1},
        "poisson tensor needs two poisson files, got 3",
    ),
    # rational literals are ASCII [+-]?[0-9]+(/[0-9]+)?: int() would read these
    (
        ["decompose", "@v"],
        {"v": dict(VECTOR, components=[["0", "1_0"]])},
        "bad rational literal '1_0'",
    ),
    (
        ["decompose", "@v"],
        {"v": dict(VECTOR, components=[["0", "\u0663"]])},
        "bad rational literal '\u0663'",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": dict(DEFORM, terms=[{"coeff": ["0", "1/ 2"], "cochain": []}])},
        "bad rational literal '1/ 2'",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f"],
        {"d": DEFORM, "f": {"cap": 3, "matrix": [[["1"], ["0"]], [["0", "1/+2"], ["1"]]]}},
        "bad rational literal '1/+2'",
    ),
    (
        ["deform", "transport", "@d", "--endo", "@f", "--inverse"],
        {"d": DEFORM, "f": {"cap": 3, "matrix": [[["1"], ["0"]], [["0", "\uff11\uff12"], ["1"]]]}},
        "bad rational literal '\uff11\uff12'",
    ),
    (
        ["deform", "polycheck", "@d", "--poly", '["1", "1_0"]', "--k", "1"],
        {"d": DEFORM},
        "bad rational literal '1_0'",
    ),
    (
        ["check", "@a"],
        {"a": dict(LIE2, table=[{"i": 0, "j": 1, "out": [{"k": 1, "c": "1 /2"}]}])},
        "bad rational literal '1 /2'",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": _term([{"args": [0, 1], "out": [{"k": 0, "c": "\u0662/3"}]}])},
        "bad rational literal '\u0662/3'",
    ),
    # a tensor product of two legal files is bounded by io.MAX_DIM too, before
    # it is built
    (
        ["gass", "tensor", "@a", "@b", "--group", "Id"],
        {"a": {"dim": 10, "kind": "assoc", "table": []}, "b": {"dim": 11, "kind": "assoc", "table": []}},
        f"tensor product dim 10*11 = 110 exceeds the largest supported dim {io.MAX_DIM}",
    ),
    (
        ["gass", "tensor", "@a", "@a", "--group", "S3"],
        {"a": dict(ASSOC1, dim=io.MAX_DIM)},
        f"tensor product dim {io.MAX_DIM}*{io.MAX_DIM} = {io.MAX_DIM**2} exceeds",
    ),
    (
        ["poisson", "tensor", "@a", "@b"],
        {"a": dict(POISSON1, dim=io.MAX_DIM), "b": dict(POISSON1, dim=2)},
        f"tensor product dim {io.MAX_DIM}*2 = {2 * io.MAX_DIM} exceeds",
    ),
    # two faults in one document: every literal of every entry is read before
    # any range is checked; then entries in file order, each by pair range,
    # Lie i < j and out index
    (
        ["check", "@a"],
        {
            "a": dict(
                LIE2,
                dim=3,
                table=[
                    {"i": 1, "j": 0, "out": [{"k": 0, "c": "1"}]},
                    {"i": 0, "j": 2, "out": [{"k": 1, "c": "1/0"}]},
                ],
            )
        },
        "error: denominator must be positive in '1/0'\n",
    ),
    (
        ["check", "@a"],
        {
            "a": dict(
                LIE2,
                table=[
                    {"i": 0, "j": 5, "out": [{"k": 0, "c": "1"}]},
                    {"i": 0, "j": 1, "out": [{"k": 7, "c": "1"}]},
                ],
            )
        },
        "error: pair (0,5) outside 0..1\n",
    ),
    (
        ["check", "@a"],
        {
            "a": dict(
                LIE2,
                table=[
                    {"i": 0, "j": 1, "out": [{"k": 7, "c": "1"}]},
                    {"i": 0, "j": 5, "out": [{"k": 0, "c": "1"}]},
                ],
            )
        },
        "error: basis index 7 outside 0..1\n",
    ),
    (
        ["check", "@a"],
        {"a": dict(ASSOC1, dim=2, table=[{"i": 2, "j": 0, "out": [{"k": 9, "c": "1"}]}])},
        "error: pair (2,0) outside 0..1\n",
    ),
    (
        ["check", "@a"],
        {"a": dict(LIE2, table=[{"i": 1, "j": 1, "out": [{"k": 9, "c": "1"}]}])},
        "error: lie table key (1,1) must satisfy i < j; the bracket is extended "
        "antisymmetrically\n",
    ),
    (
        ["poisson", "verify", "@a"],
        {
            "a": {
                "dim": 2,
                "kind": "poisson",
                "assoc_table": [{"i": 0, "j": 4, "out": [{"k": 0, "c": "1"}]}],
                "bracket_table": [{"i": 0, "j": 1, "out": [{"k": 0, "c": "x"}]}],
            }
        },
        "error: bad rational literal 'x'\n",
    ),
    (
        ["poisson", "verify", "@a"],
        {
            "a": {
                "dim": 2,
                "kind": "poisson",
                "assoc_table": [{"i": 0, "j": 1, "out": [{"k": 5, "c": "1"}]}],
                "bracket_table": [{"i": 3, "j": 1, "out": [{"k": 0, "c": "1"}]}],
            }
        },
        "error: basis index 5 outside 0..1\n",
    ),
    # a constant term outside m, of a vector component or of an endomorphism
    # entry off Id, is printed in lowest terms: a negative fraction, a
    # reducible literal and an integer
    *(
        (["decompose", "@v"], {"v": {"cap": 2, "components": [["0", "1"], [c]]}},
         f"error: component 1 has constant term {x}\n")
        for c, x in CONSTANT_TERMS
    ),
    *(
        (["deform", "transport", "@d", "--endo", "@f"] + inverse,
         {"d": DEFORM, "f": {"matrix": [[["1"], [c, "1"]], [["0"], ["1"]]]}},
         f"error: endomorphism entry (0,1) has constant term {x}; expected Id + h "
         "with h into m\n")
        for c, x in CONSTANT_TERMS
        for inverse in ([], ["--inverse"])
    ),
    # a deformation term is a degree-2 adjoint cochain: no other shape is read
    (
        ["deform", "verify", "@d"],
        {"d": _term({"target": "trivial", "values": [{"args": [0, 1], "c": "1"}]})},
        "terms need degree-2 adjoint cochains over the base",
    ),
    (
        ["deform", "verify", "@d"],
        {"d": _term({"degree": 3, "target": "adjoint", "values": []})},
        "terms need degree-2 adjoint cochains over the base",
    ),
]


@pytest.mark.parametrize("argv, files, reason", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, argv, files, reason):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in files.items()}
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc["ok"] is False
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err


def test_overlong_integer_literals_exit_2(tmp_path, capsys):
    """An integer literal past the interpreter's limit on int digits is
    malformed input, in a file and in --poly, not a traceback."""
    digits = "1" + "0" * 5000
    path = tmp_path / "a.json"
    path.write_text('{"dim": ' + digits + ', "kind": "lie"}')
    deform = write(tmp_path, "d.json", DEFORM)
    for argv in (
        ["check", str(path)],
        ["deform", "polycheck", deform, "--poly", f"[{digits}]", "--k", "1"],
    ):
        code, doc, err = run(capsys, *argv)
        assert code == 2 and doc["ok"] is False
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys):
    """Arrays nested deeper than the interpreter's recursion limit are
    malformed input, in every file reader and in --poly, not a traceback."""
    nested = "[" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(nested)
    deform = write(tmp_path, "d.json", DEFORM)
    for argv in (
        ["check", str(path)],
        ["cohomology", str(path), "--deg", "2", "--coeff", "adjoint"],
        ["rigidity", str(path), "--asserted-rigid"],
        ["deform", "transport", deform, "--endo", str(path)],
        ["deform", "polycheck", deform, "--poly", nested, "--k", "1"],
    ):
        code, doc, err = run(capsys, *argv)
        assert code == 2 and doc["ok"] is False, argv
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "is not valid JSON: " in err, err


def test_file_read_matches_text_mode_reader(tmp_path, capsys):
    """`io.load_json` reads a file in one binary read and maps CRLF and lone
    CR to LF as text mode did: on a CRLF and a lone-CR file with a syntax
    error on line 3, invalid UTF-8, a UTF-8 BOM, a directory and a missing
    path it raises FormatError with the text-mode reader's exact text
    (`gens.reference_load_json`), and `check` exits 2 with that one line.
    Valid CRLF and lone-CR files read to the same document."""
    from gens import reference_load_json

    from valdef.errors import FormatError

    lines = ['{"dim": 2,', '"kind": "lie",', '"table": [], "basis": [] "torus": [0]', "}"]
    broken = {"crlf": "\r\n".join(lines), "cr": "\r".join(lines)}
    files = {name: text.encode() for name, text in broken.items()}
    files["utf8"] = b'{"dim": 2, "kind": "lie\xff"}'
    files["bom"] = b"\xef\xbb\xbf" + json.dumps(SL2_DOC).encode()
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, data in files.items():
        paths[name].write_bytes(data)
    paths["directory"] = tmp_path
    paths["missing"] = tmp_path / "missing.json"
    errors = {}
    for name, path in paths.items():
        with pytest.raises(FormatError) as want:
            reference_load_json(str(path))
        with pytest.raises(FormatError) as got:
            io.load_json(str(path))
        errors[name] = str(got.value)
        assert errors[name] == str(want.value), name
        code, doc, err = run(capsys, "check", str(path))
        assert code == 2 and doc["ok"] is False, name
        assert err.splitlines() == [f"error: {want.value}"], name
    # the mapping is what keeps the offset: an unmapped read counts each CR
    assert "line 3 column 26 (char 51)" in errors["crlf"]
    with pytest.raises(ValueError) as raw:
        json.loads(files["crlf"].decode())
    assert "line 3 column 26 (char 53)" in str(raw.value)
    for sep in ("\r\n", "\r"):
        path = tmp_path / "sl2.json"
        path.write_bytes(json.dumps(SL2_DOC, indent=1).replace("\n", sep).encode())
        assert io.load_json(str(path)) == reference_load_json(str(path)) == SL2_DOC


def test_tracer_layers_resolve():
    """Every function perfbench/tracer.py wraps by name exists in valdef:
    `Tracer().install()`, as `perfbench/run.py --trace 1` runs it, finds and
    wraps every LAYERS name.

    install() does a getattr on each name, so a deleted or renamed function
    makes it raise.  It runs in a fresh interpreter, with perfbench/ on
    sys.path as `perfbench/run.py` puts it there, so that its wrappers never
    reach the valdef of this process.
    """
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = f"""
import importlib, json, sys
sys.path.insert(0, {str(bench)!r})
import tracer
tracer.Tracer().install()
unwrapped = []
for mod, attrs in tracer.LAYERS.items():
    for attr in attrs:
        obj = importlib.import_module("valdef." + mod)
        for part in attr.split("."):
            obj = getattr(obj, part)
        if not hasattr(obj, "__wrapped__"):
            unwrapped.append(mod + "." + attr)
print(json.dumps(unwrapped))
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_integer_paths_build_no_fraction(tmp_path, capsys, monkeypatch):
    """`decompose`, `deform decompose` and `deform graded` keep integers from
    the parse to the print: over the deform corpus at two seeds, no Fraction
    is constructed while they run, counted by wrapping Fraction.__new__."""
    from fractions import Fraction

    import valdef.decompose  # noqa: F401  (module constants built first)
    import valdef.deformation  # noqa: F401

    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    monkeypatch.syspath_prepend(bench)
    import corpus

    cases = []
    for seed in (1, 3):
        (tmp_path / str(seed)).mkdir()
        cases += corpus.build("deform", seed, str(tmp_path / str(seed)))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    ran = {}
    for case in cases:
        command = " ".join(case.argv[: 1 + (case.argv[0] == "deform")])
        if command not in ("decompose", "deform decompose", "deform graded"):
            continue
        code, _, _ = run(capsys, *case.argv)
        assert code in ((0, 1) if case.expect is None else (case.expect,))
        assert made == [], case.id
        ran[command] = ran.get(command, 0) + 1
    assert len(ran) == 3 and min(ran.values()) >= 10, ran
    Fraction(1, 2)  # the wrapper does count
    assert made == [(1, 2)]


SRC = Path(__file__).resolve().parents[1] / "src"
# modules that only some subcommands need, imported inside their cmd_*
SUBCOMMAND_MODULES = (
    "cohomology", "decompose", "deformation", "rigidity", "nonassoc", "grading"
)
# what `import valdef.cli` loads of valdef: no series arithmetic, series-file
# format or command body that the Lie commands never run
CLI_PATH = {"valdef", "valdef.cli", "valdef.io", "valdef.algebra", "valdef.errors"}
# loaded by no check, cohomology or rigidity call on a Lie file
NOT_FOR_LIE = {"valdef.series", "valdef.decompose", "valdef.deformation", "valdef.nonassoc"}


def _modules_after(imports, then=""):
    """sys.modules of a new interpreter after it imports the given modules
    and runs the statement `then`.

    -S keeps site hooks out, so every module listed was loaded by these
    imports, by `then` or by the interpreter itself.
    """
    code = (
        f"import json, sys\nimport {', '.join(imports)}\n{then}\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


# no command builds a Fraction, so none pays for importing `fractions` and
# the `decimal` and `numbers` modules it pulls in
RATIONALS = {"fractions", "decimal", "numbers"}


def test_cli_import_loads_no_subcommand_module():
    loaded = _modules_after(["valdef.cli"])
    assert {m for m in loaded if m.split(".")[0] == "valdef"} == CLI_PATH
    assert not {f"valdef.{m}" for m in SUBCOMMAND_MODULES} & loaded
    # argparse (and the gettext it imports) serve only --help and bad argv
    assert not {"argparse", "gettext"} & loaded
    # elimination is loaded by the subcommand modules that use it
    assert "valdef.linalg" not in loaded
    assert not RATIONALS & loaded
    everything = ["valdef.linalg", "valdef.catalog"] + [
        f"valdef.{p.stem}" for p in (SRC / "valdef").glob("*.py") if p.stem != "__init__"
    ]
    loaded = _modules_after(everything)
    assert {f"valdef.{m}" for m in SUBCOMMAND_MODULES} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
    assert not RATIONALS & loaded


def test_grading_is_loaded_only_by_a_large_cohomology_call():
    """`grading` is imported inside `cohomology_dim`, so the deform and
    rigidity paths and the modules themselves load nothing new."""
    loaded = _modules_after(["valdef.cli", "valdef.deformation", "valdef.rigidity"])
    assert "valdef.cohomology" in loaded and "valdef.grading" not in loaded


# one command line per subcommand and action, by test id, @name standing for
# the path of a file
ONE_SHOT = {
    "check": ["check", "@assoc"],
    "check-lie": ["check", "@r2"],
    "cohomology": ["cohomology", "@r2", "--deg", "2", "--coeff", "adjoint"],
    "decompose": ["decompose", "@vector"],
    "deform": ["deform", "verify", "@deform"],
    "deform-decompose": ["deform", "decompose", "@deform"],
    "deform-graded": ["deform", "graded", "@deform"],
    "deform-transport": ["deform", "transport", "@deform", "--endo", "@endo"],
    "deform-polycheck": ["deform", "polycheck", "@deform", "--poly", '["1"]', "--k", "1"],
    "rigidity": ["rigidity", "@zero_root", "--asserted-rigid"],
    "gass": ["gass", "check", "@assoc", "--group", "T12"],
    "gass-dual": ["gass", "dual", "@assoc", "--group", "T12"],
    "gass-tensor": ["gass", "tensor", "@assoc", "@assoc", "--group", "T12"],
    "poisson": ["poisson", "verify", "@poisson"],
    "poisson-tensor": ["poisson", "tensor", "@poisson", "@poisson"],
    "poisson-opposite": ["poisson", "opposite", "@poisson"],
}


def test_one_shot_covers_every_action():
    """ONE_SHOT holds a command line for each action of every subcommand."""
    from valdef.cli import SPEC

    want = set()
    for command, (_, _, arguments) in SPEC.items():
        choices = dict(arguments).get("action", {}).get("choices", (None,))
        want.update((command, action) for action in choices)
    got = {(a[0], a[1] if (a[0], a[1]) in want else None) for a in ONE_SHOT.values()}
    assert got == want


def _one_shot_argv(tmp_path, argv) -> list:
    """A ONE_SHOT command line with each @name replaced by the path of its
    file, written to tmp_path."""
    paths = {"r2": catalog.path("r2"), "zero_root": catalog.path("zero_root")}
    docs = {
        "assoc": ASSOC1,
        "poisson": POISSON1,
        "vector": VECTOR,
        "deform": _term([{"args": [0, 1], "out": [{"k": 0, "c": "1"}]}]),
        # Id + diag(t, 0): a unipotent change of basis
        "endo": {"cap": 3, "matrix": [[["1", "1"], ["0"]], [["0"], ["1"]]]},
    }
    for a in argv:
        if a.startswith("@") and a[1:] in docs:
            paths[a[1:]] = write(tmp_path, f"{a[1:]}.json", docs[a[1:]])
    return [paths[a[1:]] if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv", ONE_SHOT.values(), ids=ONE_SHOT.keys())
def test_subcommand_in_fresh_process(tmp_path, capsys, argv):
    """`python -m valdef.cli` in a new process answers as main() does here.

    In-process tests share one warm sys.modules, so only a fresh process
    shows that each subcommand imports everything it uses, and that check,
    cohomology and rigidity on a Lie file load no series or
    non-associative module.
    """
    lie = argv[0] in ("check", "cohomology", "rigidity")
    lie = lie and argv[1] in ("@r2", "@zero_root")
    argv = _one_shot_argv(tmp_path, argv)
    proc = subprocess.run(
        [sys.executable, "-m", "valdef.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    code = main(argv)
    out = capsys.readouterr().out
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")
    assert code == 0 and json.loads(out)["ok"] is True
    # a well-formed command line takes the fast path, without argparse
    loaded = _modules_after(["valdef.cli"], f"valdef.cli.main({argv!r})")
    assert not {"argparse", "gettext"} & loaded
    assert not RATIONALS & loaded
    if lie:
        assert not NOT_FOR_LIE & loaded


def test_series_commands_build_no_truncseries(tmp_path, capsys, monkeypatch):
    """Every `deform` action and `decompose` of ONE_SHOT, and the `deform`
    corpus of `perfbench/corpus.py` at one seed, run on integer series
    (den, nums): `series.TruncSeries` is never built."""
    from test_corpus_digest import _call, _corpus

    from valdef.series import TruncSeries

    built = []
    init = TruncSeries.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(TruncSeries, "__init__", spy)
    ran = 0
    for argv in ONE_SHOT.values():
        if argv[0] in ("deform", "decompose"):
            assert main(_one_shot_argv(tmp_path, argv)) == 0
            ran += 1
    assert ran == 6
    capsys.readouterr()
    root = tmp_path / "corpus"
    root.mkdir()
    cases = _corpus().build("deform", 3, str(root))
    assert cases
    for case in cases:
        code, _ = _call(case.argv)
        assert code == case.expect if case.expect is not None else code in (0, 1)
    assert built == []


def test_deform_fuzzed_deformation_documents(tmp_path, capsys):
    """Deformation documents with mangled cochains get a verdict (0 or 1), a
    one-line refusal (2) or a precision verdict (3) from `deform verify`,
    `deform decompose` and one of `deform graded`, `transport` (with a
    mangled endomorphism file, maybe `--inverse`) and `polycheck` (with a
    mangled `--poly` and `--k`): one JSON document on stdout, never a
    traceback.  The cochain entries carry bad, huge and "p/0" literals,
    repeated out indices, out-of-range or non-increasing args and wrong
    degrees and targets."""
    import random

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def mostly(good, bad):
        """good, or bad once in ten draws, so most documents get through."""
        return st.integers(0, 9).flatmap(lambda r: bad if r == 0 else good)

    r2k = {"dim": 3, "kind": "lie", "table": [{"i": 0, "j": 1, "out": [{"k": 1, "c": "1"}]}]}
    bases = [SL2_DOC, NON_LIE_DOC, r2k, {"dim": 2, "kind": "lie"}]
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 5), st.floats(), st.text(max_size=4)
    )
    literals = mostly(
        st.one_of(
            st.just("0"),
            st.builds(str, st.integers(-9, 9)),
            st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(1, 12)),
        ),
        st.one_of(
            st.builds("{}/0".format, st.integers(-9, 9)),
            st.sampled_from(("9" * 5000, "1/" + "7" * 5000, "x", "", "1.5", "1/-2")),
            leaves,
        ),
    )

    @st.composite
    def cochains(draw, dim):
        pairs = [(0, 1), (0, 2), (1, 2)][: 1 if dim == 2 else 3]
        args = mostly(
            st.sampled_from(pairs).map(list),
            st.one_of(
                st.lists(st.integers(-1, dim), max_size=4),
                st.sampled_from(pairs).map(lambda p: [p[1], p[0]]),
                st.integers(0, dim - 1).map(lambda i: [i, i]),
                leaves,
            ),
        )
        cell = st.fixed_dictionaries(
            {"k": mostly(st.integers(0, dim - 1), st.integers(-1, dim)), "c": literals}
        )
        cells = mostly(
            st.lists(cell, max_size=dim, unique_by=lambda c: str(c["k"])),
            st.one_of(st.lists(cell, min_size=2, max_size=dim + 2), leaves),
        )
        entry = st.fixed_dictionaries({"args": args, "out": cells})
        odd_entry = st.one_of(leaves, entry.map(lambda e: {"c": "1", **e}))
        entries = draw(st.lists(mostly(entry, odd_entry), max_size=3))
        if not draw(st.integers(0, 4)):
            return entries
        doc = {"values": entries}
        if draw(st.booleans()):
            doc["degree"] = draw(mostly(st.just(2), st.one_of(st.integers(-1, 4), leaves)))
        if draw(st.booleans()):
            doc["target"] = draw(mostly(st.just("adjoint"), st.sampled_from(("trivial", "x"))))
        return doc

    @st.composite
    def documents(draw):
        base = draw(st.sampled_from(bases))
        cap = draw(st.integers(0, 6))
        coeff = mostly(
            st.lists(literals, max_size=cap).map(lambda xs: ["0", *xs]),
            st.one_of(st.lists(literals, max_size=cap + 2), leaves),
        )
        terms = [
            {"coeff": draw(coeff), "cochain": draw(cochains(base["dim"]))}
            for _ in range(draw(st.integers(0, 3)))
        ]
        return {"base": base, "cap": cap, "terms": terms}

    # the third call's inputs come from a Random seeded by the example:
    # hypothesis's own randoms favour edge values such as 0.0, which would
    # make most of them odd
    odd = (None, True, 3, 1.5, "x", "", "1/0", "1/-2", "9" * 5000, [], {})

    def third_call(rnd, dim):
        """The argv of one more action after the deformation file."""

        def mostly(good, rate=0.1):
            return rnd.choice(odd) if rnd.random() < rate else good

        def literal():  # rarely odd, as a file holds many
            return mostly(f"{rnd.randint(-9, 9)}/{rnd.randint(1, 4)}", 0.02)

        def series(head):
            return mostly([head] + [literal() for _ in range(rnd.randint(0, 3))], 0.02)

        rows = dim if rnd.random() < 0.9 else rnd.randint(0, dim + 1)
        matrix = [[series("1" if i == j else "0") for j in range(dim)] for i in range(rows)]
        endo = mostly({"cap": mostly(rnd.randint(0, 6)), "matrix": matrix})
        poly = mostly(["1"] + [literal() for _ in range(rnd.randint(0, 3))])
        k = rnd.randint(0, 4) if rnd.random() < 0.9 else rnd.randint(-2, 9)
        return rnd.choice([
            ["graded"],
            ["transport", "--endo", write(tmp_path, "f.json", endo)]
            + rnd.choice([[], ["--inverse"]]),
            # a value that starts with "-" must be attached to its option
            ["polycheck", f"--poly={json.dumps(poly)}", "--k", str(k)],
        ])

    verdicts = set()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(documents(), st.integers(0, 2**32 - 1))
    def check(doc, seed):
        path = write(tmp_path, "d.json", doc)
        third = third_call(random.Random(seed), doc["base"]["dim"])
        for action, *tail in (["verify"], ["decompose"], third):
            code = main(["deform", action, path, *tail])
            out = capsys.readouterr()
            assert code in (0, 1, 2, 3), out.err
            # exactly one JSON document, on one line
            assert isinstance(json.loads(out.out), dict)
            assert out.out.count("\n") == 1
            assert "Traceback" not in out.err
            if code < 2:
                verdicts.add(action)

    check()
    assert verdicts == {"verify", "decompose", "graded", "transport", "polycheck"}


def test_decompose_self_check_failure_is_internal(tmp_path, capsys, monkeypatch):
    import valdef.decompose as decompose

    path = write(tmp_path, "v.json", {"cap": 4, "components": [["0", "1"], ["0", "0", "1"]]})
    code, good, _ = run(capsys, "decompose", path)
    assert code == 0 and good["detail"]["recomposition_check"] is True
    real = decompose.recompose

    def perturbed(d):
        # the recomposition plus t^cap in its first component
        den, rows = real(d)
        return den, [rows[0][:-1] + [rows[0][-1] + den]] + rows[1:]

    # cmd_decompose imports recompose from its module at call time
    monkeypatch.setattr(decompose, "recompose", perturbed)
    code = main(["decompose", path])
    out = capsys.readouterr()
    assert code == 4
    assert out.out == ""
    assert out.err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: the flag decomposition does not recompose" in out.err


def test_poisson_self_check_failure_is_internal(tmp_path, capsys, monkeypatch):
    """A tensor or opposite structure that fails its self-check is a bug,
    not a verdict: exit 4, the traceback and nothing on stdout.  The tensor
    is built with a planted bug, one Kronecker summand of its bracket
    dropped, one constant of its product perturbed, or its product put over
    a den that the factors' dens do not give; the opposite's verifier is
    made to fail only on structures not read from a file."""
    import valdef.nonassoc as nonassoc

    path = write(tmp_path, "p.json", POISSON1)
    p3 = write(tmp_path, "p3.json", POISSON3)
    for action in (["tensor", path, path], ["tensor", p3, p3], ["opposite", path]):
        code, doc, _ = run(capsys, "poisson", *action)
        assert code == 0 and doc["ok"] and doc["detail"]["verified"] is True
    real_kronecker = nonassoc._kronecker

    def dropped(dim, pairs):
        return real_kronecker(dim, pairs[:1])

    def perturbed(dim, pairs):
        table = real_kronecker(dim, pairs)
        if len(pairs) > 1:
            return table
        den, rows = table.scaled_table
        (k, c), *rest = rows[0][0]
        first = (((k, c + 1), *rest),) + rows[0][1:]
        return nonassoc.AlgebraStructure(dim, "assoc", (den, (first,) + rows[1:]))

    def overscaled(dim, pairs):
        table = real_kronecker(dim, pairs)
        if len(pairs) > 1:
            return table
        den, rows = table.scaled_table
        rows = tuple(tuple(tuple((k, 3 * c) for k, c in e) for e in r) for r in rows)
        return nonassoc.AlgebraStructure(dim, "assoc", (3 * den, rows))

    for planted, want in (
        (dropped, "RuntimeError: tensor: bracket differs from the Kronecker formula at (1, 2)"),
        (perturbed, "RuntimeError: tensor: product differs from the Kronecker formula at (0, 0)"),
        (overscaled, "RuntimeError: tensor: product den 3 does not divide 1, the lcm of the pairs' dens"),
    ):
        monkeypatch.setattr(nonassoc, "_kronecker", planted)
        code = main(["poisson", "tensor", p3, p3])
        out = capsys.readouterr()
        assert code == 4
        assert out.out == ""
        assert out.err.startswith("Traceback (most recent call last):")
        assert want in out.err
    monkeypatch.setattr(nonassoc, "_kronecker", real_kronecker)
    loaded = []
    real_load, real_verify = io.load_algebra, nonassoc.poisson_verify

    def load(p):
        f = real_load(p)
        loaded.append(f.algebra)
        return f

    def verify(p):
        if any(p is q for q in loaded):
            return real_verify(p)
        return False, ("product not associative", (0, 0, 0))

    monkeypatch.setattr(io, "load_algebra", load)
    monkeypatch.setattr(nonassoc, "poisson_verify", verify)
    for action, label in ((["opposite", path], "opposite"),):
        code = main(["poisson", *action])
        out = capsys.readouterr()
        assert code == 4
        assert out.out == ""
        assert out.err.startswith("Traceback (most recent call last):")
        assert f"RuntimeError: {label}: product not associative at (0, 0, 0)" in out.err
    # the same verifier failing on a file's structure is malformed input
    monkeypatch.setattr(nonassoc, "poisson_verify", lambda p: (False, ("x", (0,))))
    code, doc, err = run(capsys, "poisson", "opposite", path)
    assert code == 2 and doc["ok"] is False and err.startswith("error: input: x")


def test_decompose_fuzzed_vector_documents(tmp_path, capsys):
    """Any JSON document fed to `decompose` gets an answer (0), a one-line
    refusal (2) or a precision verdict (3): one JSON document on stdout and
    never a traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def rationals(denominators):
        return st.one_of(
            st.builds(str, st.integers(-20, 20)),
            st.builds("{}/{}".format, st.integers(-(10**12), 10**12), denominators),
        )

    coefficients = st.one_of(st.just("0"), rationals(st.integers(1, 12)))

    def leaves_with(integers):
        return st.one_of(
            st.none(),
            st.booleans(),
            integers,
            st.floats(),
            st.text(max_size=8),
            rationals(st.integers(-2, 12)),
        )

    leaves = leaves_with(st.integers(-(10**20), 10**20))

    @st.composite
    def documents(draw):
        shape = draw(st.sampled_from(("vector", "vector", "vector", "leaf", "array")))
        if shape == "leaf":
            return draw(leaves)
        if shape == "array":
            return draw(st.lists(leaves, max_size=3))
        cap = draw(st.integers(0, 12))
        # mostly well-formed vectors over m, so that most documents decompose
        in_m = st.lists(coefficients, max_size=cap).map(lambda xs: ["0", *xs])
        anything = st.one_of(st.lists(st.one_of(coefficients, leaves), max_size=14), leaves)
        if draw(st.integers(0, 9)) < 7:
            components = draw(st.lists(in_m, min_size=1, max_size=6))
        elif draw(st.booleans()):
            components = draw(st.lists(st.one_of(in_m, anything), max_size=6))
        else:
            components = draw(leaves)
        doc = {"components": components}
        if draw(st.integers(0, 3)):
            doc["cap"] = cap
        elif draw(st.booleans()):
            # caps stay small: a vector is padded to its cap
            doc["cap"] = draw(leaves_with(st.integers(-2, 12)))
        return doc

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(documents())
    def check(doc):
        code = main(["decompose", write(tmp_path, "v.json", doc)])
        out = capsys.readouterr()
        assert code in (0, 2, 3), out.err
        # exactly one JSON document, on one line
        assert isinstance(json.loads(out.out), dict)
        assert out.out.count("\n") == 1
        assert "Traceback" not in out.err

    check()


def _manglers(st):
    """Hypothesis strategies that mangle algebra documents: (mostly, leaves,
    tables).  mostly(good, bad) draws bad once in ten; tables(table, dim)
    draws a copy of a table document with bad, huge and "p/0" literals,
    changed constants, out-of-range, reversed and repeated indices, repeated
    out indices and duplicate entries."""

    def mostly(good, bad):
        """good, or bad once in ten draws, so most documents get through."""
        return st.integers(0, 9).flatmap(lambda r: bad if r == 0 else good)

    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=4)
    )
    bad_literals = st.one_of(
        st.builds("{}/0".format, st.integers(-9, 9)),
        st.builds("{}/{}".format, st.integers(-(10**30), 10**30), st.integers(1, 12)),
        st.sampled_from(("9" * 5000, "1/" + "7" * 5000, "x", "", "1.5", "1/-2")),
        leaves,
    )

    @st.composite
    def cells(draw, cell, dim):
        k = draw(mostly(st.just(cell["k"]), st.one_of(st.integers(-1, dim), leaves)))
        c = draw(mostly(st.just(cell["c"]), bad_literals))
        return {"k": k, "c": c}

    @st.composite
    def entries(draw, entry, dim):
        if not draw(st.integers(0, 19)):
            return draw(leaves)
        i, j = entry["i"], entry["j"]
        i, j = draw(mostly(st.just((i, j)), st.sampled_from(((j, i), (i, i), (i, dim), (-1, j)))))
        out = [draw(cells(cell, dim)) for cell in entry["out"]]
        if not draw(st.integers(0, 9)):
            out += out[:1]  # a repeated out index
        return {"i": i, "j": j, "out": draw(mostly(st.just(out), leaves))}

    @st.composite
    def tables(draw, table, dim):
        table = [draw(entries(e, dim)) for e in table]
        if not draw(st.integers(0, 9)):
            table += table[:1]  # a duplicate entry
        return draw(mostly(st.just(table), leaves))

    return mostly, leaves, tables


def test_algebra_commands_fuzzed_documents(tmp_path, capsys, monkeypatch):
    """Algebra documents mangled from the gens Lie families, in their own
    basis and conjugated (so that `cohomology` takes the graded path), get
    a verdict (0 or 1), a one-line refusal (2) or a precision verdict (3)
    from `check`, `cohomology` and `rigidity` under any of their flags: one
    JSON document on stdout, never a traceback.  The documents carry bad,
    huge and "p/0" literals, changed constants (mostly breaking Jacobi),
    out-of-range, reversed and repeated indices, wrong dims, kinds and
    tori."""
    import random

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from gens import (
        FILIFORM4,
        H3,
        R2,
        R2K,
        ROOTS123,
        SL2,
        change_basis,
        fraction_table,
        random_invertible,
        rational_lie,
    )
    from valdef.commands import _table_doc

    rng = random.Random(81)
    bases = []
    for family in (R2, H3, SL2, R2K, FILIFORM4, ROOTS123):
        for n in (family.dim, family.dim + 2):
            g = rational_lie(n, fraction_table(family))
            h = change_basis(g, random_invertible(rng, n))
            bases.append({"dim": n, "kind": "lie", "table": _table_doc(g), "torus": [0]})
            bases.append({"dim": n, "kind": "lie", "table": _table_doc(h)})

    mostly, leaves, tables = _manglers(st)

    @st.composite
    def documents(draw):
        base = draw(st.sampled_from(bases))
        dim = base["dim"]
        table = draw(tables(base["table"], dim))
        doc = {
            "dim": draw(mostly(st.just(dim), st.one_of(st.integers(-1, dim + 2), leaves))),
            "kind": draw(mostly(st.just("lie"), st.sampled_from(("assoc", "poisson", "x")))),
            "table": table,
        }
        if "torus" in base or not draw(st.integers(0, 4)):
            doc["torus"] = draw(
                mostly(st.just([0]), st.one_of(st.lists(st.integers(-1, dim), max_size=3), leaves))
            )
        return doc

    flags = st.tuples(
        st.integers(1, 3),
        st.sampled_from(("adjoint", "trivial")),
        st.booleans(),
        st.booleans(),
    )
    import valdef.grading as grading

    found = []
    real = grading.find_grading

    def counting(g):
        graded = real(g)
        found.append(graded is not None)
        return graded

    monkeypatch.setattr(grading, "find_grading", counting)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(documents(), flags)
    # the conjugated roots123 + abelian of dim 6, as generated
    @hypothesis.example(bases[-1], (1, "adjoint", False, False))
    def check(doc, flag):
        deg, coeff, asserted, pretty = flag
        path = write(tmp_path, "a.json", doc)
        tail = ["--pretty"] if pretty else []
        commands = [
            ["check", path],
            ["cohomology", path, "--deg", str(deg), "--coeff", coeff],
            ["rigidity", path] + (["--asserted-rigid"] if asserted else []),
        ]
        for argv in commands:
            code = main(argv + tail)
            out = capsys.readouterr()
            assert code in (0, 1, 2, 3), out.err
            assert isinstance(json.loads(out.out), dict)
            if not pretty:
                assert out.out.count("\n") == 1
            assert "Traceback" not in out.err

    check()
    assert any(found)


def test_nonassoc_commands_fuzzed_documents(tmp_path, capsys):
    """Associative and Poisson documents, mangled as in
    test_algebra_commands_fuzzed_documents, get a verdict (0 or 1) or a
    one-line refusal (2) from every `gass` and `poisson` action: one JSON
    document on stdout, never a traceback.  Each example runs all six
    actions on one document (two for tensor), so most calls also meet a
    file of the other kind."""
    import random

    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from gens import ASSOCIATIVE_POOL, SL2, conjugated, lie_as_product
    from valdef.algebra import SUBGROUPS
    from valdef.commands import _table_doc

    rng = random.Random(82)
    algebras = ASSOCIATIVE_POOL + [conjugated(rng, a) for a in ASSOCIATIVE_POOL]
    assoc = [
        {"dim": a.dim, "kind": "assoc", "table": _table_doc(a)}
        for a in algebras + [lie_as_product(SL2)]
    ]
    poisson = [POISSON3, POISSON1, dict(POISSON3, bracket_table=POISSON3["bracket_table"][:1])]
    mostly, leaves, tables = _manglers(st)

    @st.composite
    def documents(draw):
        base = draw(st.sampled_from(draw(st.sampled_from((assoc, poisson)))))
        dim = base["dim"]
        doc = {
            "dim": draw(mostly(st.just(dim), st.one_of(st.integers(-1, dim + 2), leaves))),
            "kind": draw(mostly(st.just(base["kind"]), st.sampled_from(("lie", "assoc", "x")))),
        }
        for key in ("table", "assoc_table", "bracket_table"):
            if key in base:
                doc[key] = draw(tables(base[key], dim))
        return doc

    verdicts = set()

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(documents(), documents(), st.sampled_from(SUBGROUPS), st.booleans())
    # unmangled, so that every action reaches a verdict
    @hypothesis.example(assoc[0], assoc[2], "T12", False)
    @hypothesis.example(POISSON3, POISSON1, "S3", True)
    def check(a, b, group, unsigned):
        pa, pb = write(tmp_path, "a.json", a), write(tmp_path, "b.json", b)
        commands = [
            ["gass", "check", pa, "--group", group] + (["--unsigned"] if unsigned else []),
            ["gass", "dual", pa, "--group", group],
            ["gass", "tensor", pa, pb, "--group", group],
            ["poisson", "verify", pa],
            ["poisson", "tensor", pa, pb],
            ["poisson", "opposite", pa],
        ]
        for argv in commands:
            code = main(argv)
            out = capsys.readouterr()
            assert code in (0, 1, 2, 3), out.err
            assert isinstance(json.loads(out.out), dict)
            assert out.out.count("\n") == 1
            assert "Traceback" not in out.err
            if code < 2:
                verdicts.add(tuple(argv[:2]))

    check()
    assert len(verdicts) == 6


def test_cohomology_size_guard(tmp_path, capsys):
    """A weight-0 block of delta_p above io.MAX_COHOMOLOGY_CELLS exits 2
    with one line naming its size, before any elimination, from
    `cohomology` and from both `rigidity` paths to H^2(g, K); the block is
    measured after grading, so a graded algebra whose whole complex is
    larger is still answered."""
    abelian = {"dim": 30, "kind": "lie", "table": [], "torus": [0]}
    abelian = write(tmp_path, "ab30.json", abelian)
    code, doc, err = run(capsys, "cohomology", abelian, "--deg", "2", "--coeff", "adjoint")
    rows, cols = 4060 * 30, 435 * 30
    assert rows * cols > io.MAX_COHOMOLOGY_CELLS
    assert code == 2 and doc == {"ok": False, "error": doc["error"]}
    assert err == (
        f"error: degree-2 adjoint coboundary block of {rows} x {cols} = {rows * cols} "
        f"entries exceeds the largest supported {io.MAX_COHOMOLOGY_CELLS}\n"
    )
    # rank 1 asserted rigid and not: H^2 trivial of dim 30 is 4060 x 435
    for flags in (["--asserted-rigid"], []):
        code, doc, err = run(capsys, "rigidity", abelian, *flags)
        assert code == 2 and doc == {"ok": False, "error": doc["error"]}
        assert err == (
            f"error: degree-2 trivial coboundary block of 4060 x 435 = 1766100 "
            f"entries exceeds the largest supported {io.MAX_COHOMOLOGY_CELLS}\n"
        )
    # [e0, e_i] = i e_i on dim 10: the whole delta_2 has 1200 x 450 entries
    roots = {
        "dim": 10,
        "kind": "lie",
        "table": [{"i": 0, "j": i, "out": [{"k": i, "c": str(i)}]} for i in range(1, 10)],
    }
    assert 1200 * 450 > io.MAX_COHOMOLOGY_CELLS
    path = write(tmp_path, "roots.json", roots)
    code, doc, _ = run(capsys, "cohomology", path, "--deg", "2", "--coeff", "adjoint")
    assert code == 0 and doc["ok"] is True


def test_size_guard_on_an_ungraded_nilpotent_complex(tmp_path, capsys, monkeypatch):
    """filiform8 H^3 adjoint (448 x 560 entries) has no inner grading.  In
    its monomial basis it keeps that basis; conjugated, it moves to the
    lower-central-series basis before the size guard, which reads the same
    block dims: both raise the same TooLarge line from `cohomology_dim` and
    exit 2 with it from `cohomology`."""
    import random

    from gens import change_basis, random_invertible, rational_lie

    from valdef import grading
    from valdef.commands import _table_doc
    from valdef.cohomology import cohomology_dim
    from valdef.errors import TooLarge

    line = (
        "degree-3 adjoint coboundary block of 560 x 448 = 250880 entries "
        f"exceeds the largest supported {io.MAX_COHOMOLOGY_CELLS}"
    )
    filiform8 = rational_lie(8, {(0, i): {i + 1: 1} for i in range(1, 7)})
    conjugated = change_basis(filiform8, random_invertible(random.Random(5), 8))
    moved = []
    real = grading.central_series_basis
    monkeypatch.setattr(
        grading, "central_series_basis", lambda g: moved.append(real(g)) or moved[-1]
    )
    for g, name in ((filiform8, "monomial"), (conjugated, "conjugated")):
        moved.clear()
        with pytest.raises(TooLarge) as raised:
            cohomology_dim(g, 3, "adjoint")
        assert str(raised.value) == line
        assert [out is not None for out in moved] == [name == "conjugated"]
        doc = {"dim": 8, "kind": "lie", "table": _table_doc(g)}
        path = write(tmp_path, f"{name}.json", doc)
        code, out, err = run(capsys, "cohomology", path, "--deg", "3", "--coeff", "adjoint")
        assert code == 2 and out == {"ok": False, "error": out["error"]}
        assert err == f"error: {line}\n"


def test_series_size_guard(tmp_path, capsys):
    """A series matrix of more than io.MAX_SERIES_CELLS entries exits 2
    with one line naming its size, before it is allocated: the perturbation
    of an empty deformation of dim 30 at cap 1000 (a 75-byte file), a
    vector file of 8,000 empty components, an endomorphism of dim 32 and a
    deformation file of 1,000 empty terms.  `deform verify` builds no
    perturbation and still answers, and matrices at the bound run."""
    import tracemalloc

    def doc(dim, cap, terms=()):
        base = {"dim": dim, "kind": "lie", "table": []}
        return {"cap": cap, "base": base, "terms": list(terms)}

    empty30 = write(tmp_path, "d30.json", doc(30, 1000))
    empty32 = write(tmp_path, "d32.json", doc(32, 1000))
    endo = write(tmp_path, "f.json", {"matrix": [[[]] * 32] * 32})
    terms = write(tmp_path, "t.json", doc(3, 1000, [{"coeff": [], "cochain": []}] * 1000))
    vector = write(tmp_path, "v.json", {"cap": 1000, "components": [[]] * 8000})
    cases = [
        (["deform", "decompose", empty30], 13050, "perturbation rows"),
        (["deform", "polycheck", empty30, "--poly", '["1"]', "--k", "1"], 13050,
         "perturbation rows"),
        (["deform", "transport", empty32, "--endo", endo], 32 * 32, "series"),
        (["deform", "verify", terms], 1000, "deformation terms"),
        (["decompose", vector], 8000, "series"),
    ]
    for argv, rows, what in cases:
        tracemalloc.start()
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert code == 2 and out == {"ok": False, "error": out["error"]}
        assert err == (
            f"error: {rows} {what} of 1001 coefficients = {rows * 1001} entries "
            f"exceed the largest supported {io.MAX_SERIES_CELLS}\n"
        )
        # the parent built the whole matrix: 105 MB and 200 MB for the first
        # and last case
        assert peak < 5_000_000
    code, out, _ = run(capsys, "deform", "verify", empty30)
    assert code == 0 and out["ok"] is True
    # at the bound: 1,000 components at cap 999, and dim MAX_DIM at cap 1
    # with 495,000 x 2 = 990,000 entries
    components = [["0", "1"]] * 1000
    vector = write(tmp_path, "v1.json", {"cap": 999, "components": components})
    assert 1000 * 1000 == io.MAX_SERIES_CELLS
    code, out, _ = run(capsys, "decompose", vector)
    assert code == 0 and out["detail"]["length"] == 1
    empty100 = write(tmp_path, "d100.json", doc(io.MAX_DIM, 1))
    code, out, _ = run(capsys, "deform", "decompose", empty100)
    assert code == 0 and out["detail"] == {"cap": 1, "terms": []}


def test_decompose_refuses_a_coefficient_past_the_digit_limit(tmp_path, capsys):
    """Step 2 of the vector (t + 10^40 t^2, t^2) has the coefficient
    t / (1 + 10^40 t), whose t^k numerator has 40 (k - 1) + 1 digits.  At
    cap 100 every literal fits the interpreter's int-to-str limit (4,300
    digits by default); at cap 120 the answer would pass it, so the command
    exits 2 with one line naming the limit, not 4 with a traceback."""
    big = "1" + "0" * 40
    for cap in (100, 120):
        vector = {"cap": cap, "components": [["0", "1", big], ["0", "0", "1"]]}
        path = write(tmp_path, f"v{cap}.json", vector)
        code, out, err = run(capsys, "decompose", path)
        if cap == 100:
            assert code == 0 and err == ""
            coefficient = out["detail"]["steps"][1]["coefficient"]
            assert coefficient == ["0"] + [str((-(10**40)) ** k) for k in range(99)]
            continue
        limit = sys.get_int_max_str_digits()
        assert code == 2 and out == {"ok": False, "error": out["error"]}
        assert err == f"error: a rational to print has more than {limit} digits\n"


def test_decompose_refuses_an_unprintable_step_before_its_checks(
    tmp_path, capsys, monkeypatch
):
    """The step coefficients are written before the recomposition check and
    the flag: at cap 120 the vector (t + 10^40 t^2, t^2) exits 2 on its
    unprintable coefficient with `recompose` and `flag_of` never called."""
    import valdef.decompose as decompose

    def not_reached(*args):
        raise AssertionError("called before the steps were printed")

    monkeypatch.setattr(decompose, "recompose", not_reached)
    monkeypatch.setattr(decompose, "flag_of", not_reached)
    big = "1" + "0" * 40
    vector = {"cap": 120, "components": [["0", "1", big], ["0", "0", "1"]]}
    code, out, err = run(capsys, "decompose", write(tmp_path, "v.json", vector))
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == {"ok": False, "error": out["error"]}
    assert err == f"error: a rational to print has more than {limit} digits\n"


def test_decompose_refuses_an_unprintable_step_before_the_later_steps(
    tmp_path, capsys, monkeypatch
):
    """Each step is written as `decompose` finds it, so the first step past
    the interpreter's int-digit limit ends the command.  The vector
    (t + 10^40 t^2, t^2 + t^3, .., t^31 + t^32) at cap 120 has 31 steps, each
    after the first with a series division; step 2, (t + t^2) / (1 + 10^40 t),
    cannot be printed, so one division runs, not 30."""
    import valdef.decompose as decompose
    import valdef.series as series

    calls = []
    real = decompose.div_nums
    monkeypatch.setattr(decompose, "div_nums", lambda *a: calls.append(1) or real(*a))
    big = "1" + "0" * 40
    components = [["0", "1", big]]
    components += [["0"] * (k + 1) + ["1", "1"] for k in range(1, 31)]
    vector = {"cap": 120, "components": components}
    code, out, err = run(capsys, "decompose", write(tmp_path, "v.json", vector))
    limit = sys.get_int_max_str_digits()
    assert code == 2 and out == {"ok": False, "error": out["error"]}
    assert err == f"error: a rational to print has more than {limit} digits\n"
    assert len(calls) == 1
    # the whole decomposition takes a division at every step after the first
    calls.clear()
    den, rows = series.parse_vector(vector, None)
    assert decompose.decompose(den, rows).length == 31 and len(calls) == 30


def test_non_split_search_stops_at_its_budget(tmp_path, capsys, monkeypatch):
    """On a large algebra with no split candidate the grading search gives
    up after grading.SEARCH_BUDGET multiplies, so `cohomology` reaches its
    size guard at once instead of trying all n(n+1)/2 candidates.

    sl2 + abelian of dim 24 in the basis f_i = sum_j M[j][i] e_j, where the
    sl2 coordinates (a, b, c) over h, e, f of every f_i are 1 mod 3.  Then
    x = a h + b e + c f of every candidate has a^2 + bc = 2 mod 3, and the
    spectrum +-2 sqrt(a^2 + bc) of ad x is irrational."""
    import random

    from gens import change_basis, rational_lie

    from valdef import grading
    from valdef.commands import _table_doc

    n = 24
    rng = random.Random(5)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, row in enumerate([[1, 1, 1], [1, -2, 1], [1, 1, -2]]):  # det 9
        matrix[i] = row + [rng.choice((1, -2, 4)) for _ in range(n - 3)]
    sl2 = rational_lie(n, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    conjugated = change_basis(sl2, matrix)
    path = write(
        tmp_path, "big.json", {"dim": n, "kind": "lie", "table": _table_doc(conjugated)}
    )
    calls = []
    original = grading.charpoly
    monkeypatch.setattr(grading, "charpoly", lambda a: calls.append(1) or original(a))
    code, doc, err = run(capsys, "cohomology", path, "--deg", "1", "--coeff", "adjoint")
    rows, cols = 276 * n, n * n
    assert code == 2 and err == (
        f"error: degree-1 adjoint coboundary block of {rows} x {cols} = {rows * cols} "
        f"entries exceeds the largest supported {io.MAX_COHOMOLOGY_CELLS}\n"
    )
    # the search spends its budget and stops with candidates left
    assert 0 < len(calls) <= grading.SEARCH_BUDGET // n**4 < n * (n + 1) // 2
