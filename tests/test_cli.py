from fractions import Fraction as F

import pytest

from gsfuzz import FuzzyPoint, FuzzySubset, point_satisfies, validate_structure
from gsfuzz.cli import document_for, parse, print_document, run
from gsfuzz.errors import (
    BadRational,
    DocumentError,
    DocumentSyntaxError,
    DuplicateName,
    MissingTable,
)
from gsfuzz.fuzzy import IN
from gsfuzz.search import SplitMix64, fixtures, mod_surrogate

EX34_TEXT = """\
# three-element carrier, single operation
elements e a b
gammas g
table g
e e e
e a e
e e b
fuzzy mu e=1/2 a=3/5 b=3/5
subset A e a
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_basic_document():
    doc = parse(EX34_TEXT)
    assert doc.elements == ["e", "a", "b"]
    assert doc.tables["g"][1][2] == "e"  # a g b
    assert doc.fuzzy["mu"]["a"] == F(3, 5)
    assert doc.subsets["A"] == ["e", "a"]
    doc.to_structure()


def test_parse_decimal_grades_exact():
    doc = parse("elements x\ngammas g\ntable g\nx\nfuzzy m x=0.78\n")
    assert doc.fuzzy["m"]["x"] == F(39, 50)


def test_parse_grade_out_of_range():
    with pytest.raises(BadRational) as exc:
        parse("elements x\ngammas g\ntable g\nx\nfuzzy m x=3/2\n")
    assert exc.value.line == 5


def test_parse_short_table():
    with pytest.raises(MissingTable):
        parse("elements a b c\ngammas g\ntable g\na a a\nb b b\n")


def test_parse_missing_table():
    with pytest.raises(MissingTable):
        parse("elements a\ngammas g h\ntable g\na\n")


def test_parse_duplicates_and_syntax():
    with pytest.raises(DuplicateName):
        parse("elements a\ngammas g\ntable g\na\nfuzzy m a=1\nfuzzy m a=0\n")
    with pytest.raises(DocumentSyntaxError) as exc:
        parse("elements a\ngammas g\ntable g\na\nwhatever\n")
    assert exc.value.line == 5
    with pytest.raises(DocumentSyntaxError):
        parse("gammas g\n")
    with pytest.raises(DuplicateName) as exc:
        parse(EX34_TEXT + "fuzzy nu e=1/2 a=3/5 b=3/5 e=1\n")
    assert str(exc.value) == "line 10: element 'e' graded twice"


def test_roundtrip_fixture_documents():
    for f in fixtures():
        doc = document_for(f.structure, f.fuzzy)
        assert parse(print_document(doc)) == doc


def test_roundtrip_preserves_subsets():
    doc = parse(EX34_TEXT)
    assert parse(print_document(doc)) == doc


def test_roundtrip_directive_named_elements():
    s = validate_structure(["fuzzy", "b"], ["g"], [[[0, 0]], [[0, 1]]])
    doc = document_for(s)
    assert parse(print_document(doc)) == doc


def test_parse_short_table_before_directive():
    with pytest.raises(MissingTable) as exc:
        parse("elements a b\ngammas g\ntable g\na a\nfuzzy m a=1\n")
    assert str(exc.value) == "line 5: table 'g' has 1 rows, expected 2"


# Directive words and format punctuation mixed with plain name characters;
# the unsafe marks are what the line format cannot carry inside a name.
_NAME_PARTS = ("elements", "gammas", "table", "fuzzy", "subset", "map", "->", "a", "b",
               "0", "-", "_", ".", "/")
_UNSAFE = ("=", "#", ":", " ", "\t")


def _distinct_names(rng: SplitMix64, count: int) -> list:
    names: list = []
    while len(names) < count:
        parts = (_NAME_PARTS[rng.below(len(_NAME_PARTS))] for _ in range(1 + rng.below(3)))
        name = "".join(parts)
        if name not in names:
            names.append(name)
    return names


def test_roundtrip_random_names():
    rng = SplitMix64(20)
    pool = [f.structure for f in fixtures()]
    for trial in range(200):
        s0 = pool[rng.below(len(pool))]
        names = _distinct_names(rng, s0.n + s0.k + 4)
        spoiled = trial % 2
        if spoiled:  # one name carries an unsafe mark
            i = rng.below(len(names))
            j = rng.below(len(names[i]) + 1)
            names[i] = names[i][:j] + _UNSAFE[rng.below(len(_UNSAFE))] + names[i][j:]
            # the last two names are drawn only to keep the seeded sequence;
            # a mark on one of them spoils nothing that is printed
            spoiled = i < s0.n + s0.k + 2
        elements, gammas = names[: s0.n], names[s0.n: s0.n + s0.k]
        fuzzy_name, subset_name = names[s0.n + s0.k: s0.n + s0.k + 2]
        s = validate_structure(elements, gammas, s0.cayley)
        mu = FuzzySubset(s, [F(rng.below(11), 10) for _ in range(s.n)])
        doc = document_for(s, {fuzzy_name: mu})
        doc.subsets[subset_name] = elements[: 1 + rng.below(s.n)]
        if spoiled:
            with pytest.raises(DocumentError):
                print_document(doc)
        else:
            assert parse(print_document(doc)) == doc, names


def test_parse_rejects_unsafe_names():
    for text in ("elements a:b\n", "elements a\ngammas g=h\n",
                 "elements a\ngammas g\ntable g\na\nsubset A:B a\n"):
        with pytest.raises(DocumentSyntaxError):
            parse(text)


def _run(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_cli_validate(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, out = _run(capsys, ["validate", path])
    assert code == 0 and "valid: true" in out


def test_cli_validate_invalid_structure(tmp_path, capsys):
    broken = EX34_TEXT.replace("e a e", "e a b")  # a g b = b breaks associativity
    path = _write(tmp_path, "bad.gsf", broken)
    code, out = _run(capsys, ["validate", path])
    assert code == 3 and "AssociativityViolation" in out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "bad.gsf", "elements a\ngammas g\ntable g\na\nfuzzy m a=3/2\n")
    code, out = _run(capsys, ["check", path, "--fuzzy", "m", "--pred", "eq-subsemigroup"])
    assert code == 2 and "line 5" in out


def test_cli_map_line_is_an_unknown_directive(tmp_path, capsys):
    path = _write(tmp_path, "map.gsf", EX34_TEXT + "map f -> other.gsf : e=e a=a b=b\n")
    code, out = _run(capsys, ["validate", path])
    assert (code, out) == (2, "error: line 10: unknown directive 'map'\n")


def test_cli_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_cli_classify(tmp_path, capsys):
    f427 = next(f for f in fixtures() if f.id == "ex4.27")
    path = _write(tmp_path, "ex427.gsf", print_document(document_for(f427.structure, f427.fuzzy)))
    code, out = _run(capsys, ["classify", path])
    assert code == 0
    assert "regular: true" in out
    assert "intra_regular: true" in out
    assert "right_duo: false" in out


def test_cli_check_witness_line(tmp_path, capsys):
    f46 = next(f for f in fixtures() if f.id == "ex4.6")
    path = _write(tmp_path, "ex46.gsf", print_document(document_for(f46.structure, f46.fuzzy)))
    code, out = _run(
        capsys, ["check", path, "--fuzzy", "mu", "--pred", "ab-subsemigroup:in,in"]
    )
    assert code == 0
    assert "holds: false" in out
    witness = next(l for l in out.splitlines() if l.startswith("witness:"))
    fields = dict(part.split("=") for part in witness.split()[1:])
    s = f46.structure
    mu = f46.fuzzy["mu"]
    x = s.element_index[fields["x"]]
    y = s.element_index[fields["y"]]
    g = s.gamma_index[fields["gamma"]]
    t, r = F(fields["t"]), F(fields["r"])
    # feeding the witness back through the point relations reproduces it
    assert point_satisfies(FuzzyPoint(x, t), mu, IN)
    assert point_satisfies(FuzzyPoint(y, r), mu, IN)
    assert not point_satisfies(FuzzyPoint(s.op(x, g, y), min(t, r)), mu, IN)


def test_cli_check_expect(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, _ = _run(capsys, ["check", path, "--fuzzy", "mu", "--pred", "eq-subsemigroup",
                            "--expect", "true"])
    assert code == 0
    code, out = _run(capsys, ["check", path, "--fuzzy", "mu", "--pred", "eq-subsemigroup",
                              "--expect", "false"])
    assert code == 1 and "expected: false" in out


def test_cli_check_unknown_fuzzy(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, out = _run(capsys, ["check", path, "--fuzzy", "nope", "--pred", "eq-subsemigroup"])
    assert code == 2


def test_cli_check_bad_predicate_names(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    for pred in ("nonsense", "ab-subsemigroup:zz,in", "ab-subsemigroup:inandq,in"):
        code, out = _run(capsys, ["check", path, "--fuzzy", "mu", "--pred", pred])
        assert code == 2, pred
        assert "error:" in out


def test_cli_predicate_names_are_lower_case(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    for pred in ("FUZZY-SUBSEMIGROUP", "AB-subsemigroup:in,q", "IN-Q-subsemigroup",
                 "ab-subsemigroup: in , q", "ab-bi-ideal:in,NOT-q"):
        code, out = _run(capsys, ["check", path, "--fuzzy", "mu", "--pred", pred])
        assert (code, out) == (2, f"error: unknown predicate name {pred!r}\n"), pred
    code, out = _run(capsys, ["search", "--want", "EQ_SUBSEMIGROUP AND NOT fuzzy_subsemigroup",
                              "--n", "2", "--k", "1", "--grid", "4", "--count", "10"])
    assert (code, out) == (2, "error: unknown predicate name 'EQ_SUBSEMIGROUP'\n")
    code, out = _run(capsys, ["check", path, "--fuzzy", "mu", "--pred", "in_not_q_bi_ideal"])
    assert code == 0 and "holds:" in out


def test_cli_zero_fuzzy_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "zero.gsf", EX34_TEXT + "fuzzy zero e=0\n")
    for argv in (["check", path, "--fuzzy", "zero", "--pred", "eq-subsemigroup"],
                 ["theorems", path, "--fuzzy", "zero"]):
        code, out = _run(capsys, argv)
        assert code == 2, argv
        assert out == "error: the zero fuzzy subset is excluded\n"


def test_cli_caps_are_usage_errors(tmp_path, capsys):
    # A cap stops the run on a valid structure: exit 2, not 3 (invalid structure).
    path = _write(tmp_path, "mod17.gsf", print_document(document_for(mod_surrogate(17).structure)))
    code, out = _run(capsys, ["classify", path])
    assert code == 2
    assert out == "error: CarrierTooLarge: duo scan needs 2^17 subsets, cap is n <= 16\n"
    code, out = _run(capsys, ["search", "--want", "eq_subsemigroup", "--n", "4", "--exhaustive"])
    assert code == 2 and out.startswith("error: CarrierTooLarge: ")


def test_cli_theorems(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu", "--samples", "10"])
    assert code == 0
    for tid in ("thm3.2", "thm3.5", "thm4.23", "thm4.24", "thm4.25", "thm4.26",
                "thm4.28", "thm4.29"):
        assert f"{tid}: agree" in out


def test_cli_theorems_bad_grid_or_samples_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    for flags in (["--grid", "0"], ["--grid", "-1"], ["--samples", "-3"]):
        code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu", *flags])
        assert code == 2, flags
        assert out == "error: need grid >= 1, count >= 0\n", flags


def test_cli_enumerate(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, out = _run(capsys, ["enumerate", path, "--kind", "bi_ideal"])
    assert code == 0
    assert "count: 4" in out
    assert "subset: e" in out


def test_cli_search(capsys):
    code, out = _run(capsys, [
        "search", "--want", "eq_subsemigroup AND NOT fuzzy_subsemigroup",
        "--n", "2", "--k", "1", "--grid", "4", "--seed", "5", "--count", "10",
    ])
    assert code == 0
    assert "found:" in out and "structures_scanned:" in out


def test_cli_fixtures_flow(tmp_path, capsys):
    code, out = _run(capsys, ["fixtures", "list"])
    assert code == 0 and "fixture: ex3.4" in out
    code, out = _run(capsys, ["fixtures", "show", "ex4.6"])
    assert code == 0 and out.startswith("elements a b c d e")
    target = str(tmp_path / "ex46.gsf")
    code, out = _run(capsys, ["fixtures", "write", "ex4.6", target])
    assert code == 0
    code, out = _run(capsys, ["validate", target])
    assert code == 0 and "valid: true" in out
    code, out = _run(capsys, ["fixtures", "show", "zz"])
    assert code == 2


def test_cli_fixtures_operands_are_usage_errors(tmp_path, capsys):
    for argv, missing in ((["show"], "id"), (["write"], "id, path"), (["write", "ex4.6"], "path")):
        assert run(["fixtures", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"the following arguments are required: {missing}" in captured.err, argv
    target = str(tmp_path / "extra.gsf")
    for argv, extra in ((["list", "ex4.6"], "ex4.6"), (["show", "ex4.6", target], target)):
        assert run(["fixtures", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"unrecognized arguments: {extra}" in captured.err, argv
    assert not (tmp_path / "extra.gsf").exists()


# Full stdout of each command, FILE standing for the structure file's path.
PINNED_OUTPUT = {
    ("validate", "ex34"): """\
file: FILE
valid: true
elements: 3
gammas: 1
""",
    ("classify", "ex34"): """\
file: FILE
regular: true
intra_regular: true
left_duo: true
right_duo: true
duo: true
subset A: subsemigroup=true left_ideal=true right_ideal=true bi_ideal=true
""",
    ("enumerate", "ex34", "--kind", "bi_ideal"): """\
file: FILE
kind: bi_ideal
count: 4
subset: e
subset: e a
subset: e b
subset: e a b
""",
    ("theorems", "ex34", "--fuzzy", "mu", "--samples", "5"): """\
file: FILE
fuzzy: mu
thm3.2: agree
thm3.2 flags: true true true true true
thm3.5: agree
thm3.5 flags: true true true true true
thm4.23: agree
thm4.23 flags: true true
thm4.24: agree
thm4.24 flags: true true
thm4.25: agree
thm4.25 flags: true true
thm4.26: agree
thm4.26 flags: true true
thm4.28: agree
thm4.28 flags: true true
thm4.29: agree
thm4.29 flags: true true true
""",
    ("check", "ex34", "--fuzzy", "mu", "--pred", "fuzzy-subsemigroup"): """\
file: FILE
fuzzy: mu
pred: fuzzy-subsemigroup
holds: false
witness: x=a y=b gamma=g
""",
    ("check", "ex46", "--fuzzy", "mu", "--pred", "ab-subsemigroup:in,in"): """\
file: FILE
fuzzy: mu
pred: ab-subsemigroup:in,in
holds: false
witness: x=a y=b gamma=g t=3/5 r=3/5
""",
    ("fixtures", "list"): """\
fixture: ex3.4
fixture: ex4.6
fixture: ex4.27
fixture: ex2.1-mod-12
""",
    ("fixtures", "show", "ex4.6"): """\
elements a b c d e
gammas g
table g
a d a d d
a b a d d
a d c d e
a d a d d
a d c d e
fuzzy mu a=4/5 b=7/10 c=3/10 d=1/2 e=3/5
""",
}


def test_cli_output_is_pinned(tmp_path, capsys, ex46):
    paths = {
        "ex34": _write(tmp_path, "ex34.gsf", EX34_TEXT),
        "ex46": _write(tmp_path, "ex46.gsf",
                       print_document(document_for(ex46.structure, ex46.fuzzy))),
    }
    for argv, expected in PINNED_OUTPUT.items():
        path = paths.get(argv[1])
        if path is not None:
            argv = (argv[0], path, *argv[2:])
            expected = expected.replace("FILE", path)
        assert _run(capsys, list(argv)) == (0, expected), argv
