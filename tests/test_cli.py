"""CLI surface: exit codes, JSON output, determinism."""

import json

import pytest

import valdef.catalog as catalog
from valdef.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    doc = json.loads(out.out) if out.out.strip() else None
    return code, doc, out.err


def write(tmp_path, name, doc):
    path = tmp_path / name
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


def test_internal_error_exit_code(capsys, monkeypatch):
    import valdef.cli as cli

    def broken(*args):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(cli, "cohomology_dim", broken)
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
        from gens import search_tables
        from valdef.nonassoc import SubgroupTag, g_associative_check
        from valdef.series import rational_str

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
                for (i, j), entry in sorted(alg.table.items())
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


def test_poisson_cli(tmp_path, capsys):
    pdoc = {
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


LIE2 = {"dim": 2, "kind": "lie", "table": []}
DEFORM = {"base": LIE2, "cap": 3, "terms": []}
VECTOR = {"cap": 3, "components": [["0", "1"]]}
COH = ["--deg", "2", "--coeff", "adjoint"]
# Id + H with constant H = diag(1, 0): not unipotent
NON_UNIPOTENT = {"cap": 4, "matrix": [[["2"], ["0"]], [["0"], ["1"]]]}


def _term(cochain):
    return dict(DEFORM, terms=[{"coeff": ["0", "1"], "cochain": cochain}])


# (argv with @name standing for the path of file name, files, words of the reason)
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
]


@pytest.mark.parametrize("argv, files, reason", MALFORMED)
def test_malformed_input_exits_2(tmp_path, capsys, argv, files, reason):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in files.items()}
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    code, doc, err = run(capsys, *argv)
    assert code == 2 and doc["ok"] is False
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err


def test_tracer_layers_resolve():
    """Every function perfbench/tracer.py wraps by name exists in valdef.

    Loading the file runs no valdef code and install() is not called, so
    this only checks that `perfbench/run.py --trace 1` will find each name.
    """
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod, attrs in tracer.LAYERS.items():
        owner = importlib.import_module(f"valdef.{mod}")
        for attr in attrs:
            obj = owner
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{mod}.{attr}")
    assert not missing
