import os
import subprocess
import sys
from fractions import Fraction as F
from hashlib import sha256
from pathlib import Path

import pytest

from gsfuzz import FuzzyPoint, FuzzySubset, point_satisfies, validate_structure
from gsfuzz.cli import document_for, parse, print_document, run
from gsfuzz.errors import (
    BadRational,
    DocumentError,
    DocumentSyntaxError,
    DuplicateName,
    GsfError,
    MissingTable,
)
from gsfuzz.fuzzy import IN
from gsfuzz.search import SplitMix64, fixtures, mod_surrogate
from gsfuzz.theorems import _report

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


_HEAD = "elements a b\ngammas g\n"
_AB = _HEAD + "table g\na a\nb b\n"

# (text, error class, str(exc), exc.line): one case for every raise of the
# reader, a short table once at a directive and once at the end of the text.
PARSE_ERRORS = [
    (_HEAD + "table g\na a\nfuzzy m a=1\n",
     MissingTable, "line 5: table 'g' has 1 rows, expected 2", 5),
    (_HEAD + "table g\na a\n\n# the end counts blank and comment lines\n",
     MissingTable, "line 6: table 'g' has 1 rows, expected 2", 6),
    (_HEAD + "table g\na a\na zz\n",
     DocumentSyntaxError, "line 5: unknown element 'zz'", 5),
    (_HEAD + "table g\na a a\n",
     MissingTable, "line 4: table row has 3 entries, expected 2", 4),
    ("elements a\nelements b\n", DuplicateName, "line 2: elements already declared", 2),
    ("elements a\ngammas g\ngammas h\n", DuplicateName, "line 3: gammas already declared", 3),
    ("elements\n", DocumentSyntaxError, "line 1: elements line needs at least one name", 1),
    ("elements a a\n", DuplicateName, "line 1: duplicate element name", 1),
    ("elements a\ngammas g g\n", DuplicateName, "line 2: duplicate gamma name", 2),
    ("elements a:b\n", DocumentSyntaxError,
     "line 1: name 'a:b' must be one token without '=', '#' or ':'", 1),
    (_HEAD + "table\n", DocumentSyntaxError, "line 3: usage: table GAMMA", 3),
    ("elements a\ntable g\n", DocumentSyntaxError,
     "line 2: declare elements and gammas first", 2),
    (_HEAD + "table h\n", DocumentSyntaxError, "line 3: unknown gamma 'h'", 3),
    (_AB + "table g\n", DuplicateName, "line 6: table 'g' already given", 6),
    (_AB + "fuzzy\n", DocumentSyntaxError, "line 6: usage: fuzzy NAME el=grade ...", 6),
    (_AB + "fuzzy m=1\n", DocumentSyntaxError,
     "line 6: name 'm=1' must be one token without '=', '#' or ':'", 6),
    (_AB + "fuzzy m a=1\nfuzzy m b=1\n", DuplicateName, "line 7: fuzzy 'm' already given", 7),
    (_AB + "fuzzy m zz=1\n", DocumentSyntaxError, "line 6: bad grade assignment 'zz=1'", 6),
    (_AB + "fuzzy m a\n", DocumentSyntaxError, "line 6: bad grade assignment 'a'", 6),
    (_AB + "fuzzy m a=1 a=0\n", DuplicateName, "line 6: element 'a' graded twice", 6),
    (_AB + "fuzzy m a=x\n", BadRational, "line 6: not an exact rational: 'x'", 6),
    (_AB + "fuzzy m a=1/0\n", BadRational, "line 6: not an exact rational: '1/0'", 6),
    (_AB + "fuzzy m a=3/2\n", BadRational, "line 6: grade 3/2 outside [0,1]", 6),
    (_AB + "subset\n", DocumentSyntaxError, "line 6: usage: subset NAME el ...", 6),
    (_AB + "subset A:B a\n", DocumentSyntaxError,
     "line 6: name 'A:B' must be one token without '=', '#' or ':'", 6),
    (_AB + "subset A a\nsubset A b\n", DuplicateName, "line 7: subset 'A' already given", 7),
    (_AB + "subset A a zz\n", DocumentSyntaxError, "line 6: unknown element 'zz'", 6),
    (_AB + "whatever a\n", DocumentSyntaxError, "line 6: unknown directive 'whatever'", 6),
    ("gammas g\n", DocumentSyntaxError, "missing elements line", None),
    ("elements a\n", DocumentSyntaxError, "missing gammas line", None),
    ("elements a\ngammas g h\ntable g\na\n", MissingTable, "no table for gamma 'h'", None),
]


@pytest.mark.parametrize("text, cls, message, line", PARSE_ERRORS)
def test_parse_errors_are_pinned(text, cls, message, line):
    with pytest.raises(DocumentError) as exc:
        parse(text)
    assert (type(exc.value), str(exc.value), exc.value.line) == (cls, message, line)


# Tokens and lines a mutation may put in: directive words, names, malformed
# grades and names the line format cannot carry.
_MUTANT_TOKENS = ("elements", "gammas", "table", "fuzzy", "subset", "map", "zz", "h",
                  "=", "a:b", "e=1", "a=1/2", "b=0.25", "e=3/2", "a=x", "b=1/0", "e=")
_MUTANT_LINES = ("", "# comment", "table g", "gammas h", "fuzzy nu", "subset B e")
# sha256 of the outcomes below, frozen from the first recorded run
MUTATION_SHA256 = "a3a2400aef0e9f912ab4062aa05a219144161c34370081b659ce138b42dab740"


def _mutate(rng: SplitMix64, lines: list, tokens: tuple) -> None:
    """Delete, duplicate, replace or insert one line (op < 4) or one token."""
    op, i = rng.below(8), rng.below(len(lines))
    if op < 4:
        pool = lines + list(_MUTANT_LINES)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = pool[rng.below(len(pool))]
        else:
            lines.insert(i + rng.below(2), pool[rng.below(len(pool))])
        return
    words = lines[i].split()
    j = rng.below(len(words) + 1)
    if op == 4:
        del words[j:j + 1]
    elif op == 5:
        words[j:j] = words[j:j + 1]
    elif op == 6:
        words[j:j + 1] = [tokens[rng.below(len(tokens))]]
    else:
        words.insert(j, tokens[rng.below(len(tokens))])
    lines[i] = " ".join(words)


def _outcome(text: str) -> tuple:
    """(kind, detail): the parse error, or the document and its structure check."""
    try:
        doc = parse(text)
    except DocumentError as exc:
        return type(exc).__name__, f"{exc.line} {exc}"
    try:
        doc.to_structure()
        built = "valid"
    except GsfError as exc:
        built = f"{type(exc).__name__}: {exc}"
    return "parsed", f"{doc!r} {built}"


def test_parse_outcomes_of_mutated_documents_are_pinned():
    rng = SplitMix64(12)
    texts = [EX34_TEXT] + [print_document(document_for(f.structure, f.fuzzy))
                           for f in fixtures()]
    outcomes = []
    for text in texts:
        tokens = _MUTANT_TOKENS + tuple(sorted(set(text.split())))
        for _ in range(600):
            lines = text.splitlines()
            for _ in range(1 + rng.below(3)):
                _mutate(rng, lines, tokens)
            outcomes.append(_outcome("\n".join(lines) + "\n"))
    assert {kind for kind, _ in outcomes} == {
        "parsed", "DocumentSyntaxError", "MissingTable", "DuplicateName", "BadRational"}
    digest = sha256(repr(outcomes).encode()).hexdigest()
    assert digest == MUTATION_SHA256


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
    assert code == 0 and "duo: true\n" in out
    code, out = _run(capsys, ["enumerate", path, "--kind", "bi_ideal"])
    assert code == 2
    assert out == "error: CarrierTooLarge: 2^17 subset scan exceeds the cap (n <= 16)\n"
    # a shape past the structure corpus is refused in both modes, before any scan
    for mode in (["--exhaustive"], ["--k", "2"]):
        code, out = _run(capsys, ["search", "--want", "fuzzy_subsemigroup AND NOT eq_subsemigroup",
                                  "--n", "4", *mode])
        assert code == 2, mode
        assert out == "error: CarrierTooLarge: structure generation is limited to n <= 3\n", mode


def test_cli_theorems(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu", "--samples", "10"])
    assert code == 0
    for tid in ("thm3.2", "thm3.5", "thm4.23", "thm4.24", "thm4.25", "thm4.26",
                "thm4.28", "thm4.29"):
        assert f"{tid}: agree" in out
    # a report whose flags disagree fails the command and prints its discrepancy
    monkeypatch.setattr(
        "gsfuzz.theorems.report_regular_intra_characterization",
        lambda s, samples: _report("thm4.29", (True, True, False), f"n={s.n} k={s.k}"),
    )
    code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu", "--samples", "10"])
    assert code == 1
    assert "thm4.29: DISAGREE\n" in out
    assert "thm4.29 discrepancy: (2,) n=3 k=1\n" in out


def test_cli_theorems_past_the_subset_scan_cap(tmp_path, capsys):
    # thm4.28 and thm4.29 generate their bi-ideals, so Z_17 is no usage error
    text = print_document(document_for(mod_surrogate(17).structure)) + "fuzzy mu 0=1/2 1=1/4\n"
    path = _write(tmp_path, "mod17.gsf", text)
    code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu"])
    assert code == 0
    assert sum(line.endswith(": agree") for line in out.splitlines()) == 8
    assert "thm4.28 flags: true true\n" in out
    assert "thm4.29 flags: true true true\n" in out


def test_cli_theorems_bad_grid_or_samples_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    for flags in (["--grid", "0"], ["--grid", "-1"], ["--samples", "-3"]):
        code, out = _run(capsys, ["theorems", path, "--fuzzy", "mu", *flags])
        assert code == 2, flags
        assert out == "error: need --grid >= 1, --samples >= 0\n", flags


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
    # only the exhaustive corpus has a whole to scan, so random mode needs a count
    code, out = _run(capsys, ["search", "--want", "eq_subsemigroup", "--n", "3", "--count", "0"])
    assert code == 2 and out == "error: random generation needs count >= 1\n"


def test_cli_random_search_reads_the_corpus(capsys):
    # the README example: 20 seeded draws from the 413 structures of n = 3, k = 2
    code, out = _run(capsys, ["search", "--want", "eq_ideal AND NOT eq_bi_ideal",
                              "--n", "3", "--k", "2", "--grid", "2"])
    assert code == 0
    assert "structures_scanned: 20\nsubsets_scanned: 520\nfound: false\n" in out


def test_cli_search_out_of_range_flag_is_usage_error(capsys):
    want = ["search", "--want", "eq_ideal", "--n", "2"]
    for flags in (["--grid", "0"], ["--k", "0"], ["--count", "-1"],
                  ["--count", "-1", "--exhaustive"], ["--n", "0"]):
        code, out = _run(capsys, [*want, *flags])
        assert code == 2, flags
        assert out == "error: need --n >= 1, --k >= 1, --grid >= 1, --count >= 0\n", flags


def test_cli_exhaustive_search_scans_the_whole_corpus(capsys):
    code, out = _run(capsys, ["search", "--want", "fuzzy_subsemigroup AND NOT eq_subsemigroup",
                              "--n", "3", "--exhaustive", "--grid", "1"])
    assert code == 0 and "structures_scanned: 113\n" in out


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


def test_python_m_gsfuzz_runs_main(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def gsf(*argv):
        done = subprocess.run([sys.executable, "-m", "gsfuzz", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout

    code, out = gsf("fixtures", "list")
    assert (code, out.splitlines()) == (0, [f"fixture: {f.id}" for f in fixtures()])
    assert len(out.splitlines()) == 4
    assert gsf("validate", "no-such.gsf") == (
        2, "error: [Errno 2] No such file or directory: 'no-such.gsf'\n"
    )


_BASE_MODULES = ["gsfuzz", "gsfuzz.cli", "gsfuzz.errors", "gsfuzz.fuzzy", "gsfuzz.structure"]
_SEARCH_MODULES = sorted([*_BASE_MODULES, "gsfuzz.predicates", "gsfuzz.search"])


@pytest.mark.parametrize("argv, modules", [
    (["validate", "FILE"], _BASE_MODULES),
    (["classify", "FILE"], _BASE_MODULES),
    (["enumerate", "FILE", "--kind", "bi_ideal"], _BASE_MODULES),
    (["check", "FILE", "--fuzzy", "mu", "--pred", "eq-subsemigroup"],
     sorted([*_BASE_MODULES, "gsfuzz.predicates"])),
    (["theorems", "FILE", "--fuzzy", "mu", "--samples", "2"],
     sorted([*_SEARCH_MODULES, "gsfuzz.theorems"])),
    (["search", "--want", "eq_subsemigroup", "--n", "2", "--exhaustive", "--grid", "2"],
     _SEARCH_MODULES),
    (["fixtures", "list"], _SEARCH_MODULES),
    (None, ["gsfuzz"]),
], ids=["validate", "classify", "enumerate", "check", "theorems", "search", "fixtures",
        "bare-import"])
def test_each_subcommand_loads_only_its_modules(tmp_path, argv, modules):
    """A fresh interpreter's gsfuzz.* modules after one `run`; None is a bare `import gsfuzz`."""
    path = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    call = "import gsfuzz" if argv is None else (
        f"from gsfuzz.cli import run; run({[path if a == 'FILE' else a for a in argv]!r})"
    )
    code = (f"import sys; {call}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gsfuzz'))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[-1] == repr(modules)


def test_byte_order_mark_is_ignored(tmp_path, capsys):
    plain = _write(tmp_path, "ex34.gsf", EX34_TEXT)
    marked = str(tmp_path / "bom.gsf")
    Path(marked).write_bytes(b"\xef\xbb\xbf" + EX34_TEXT.encode("utf-8"))
    for argv in (["validate"], ["check", "--fuzzy", "mu", "--pred", "eq-subsemigroup"],
                 ["check", "--fuzzy", "mu", "--pred", "fuzzy-subsemigroup"]):
        expected = _run(capsys, [argv[0], plain, *argv[1:]])
        got = _run(capsys, [argv[0], marked, *argv[1:]])
        assert got == (expected[0], expected[1].replace(plain, marked)), argv
        assert got[0] == 0, argv
    # the writer emits no mark
    target = tmp_path / "ex34.written.gsf"
    assert run(["fixtures", "write", "ex3.4", str(target)]) == 0
    assert not target.read_bytes().startswith(b"\xef\xbb\xbf")
    assert not print_document(parse(EX34_TEXT)).startswith("\ufeff")


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
    ("check", "ex34nu", "--fuzzy", "nu", "--pred", "eq-bi-ideal"): """\
file: FILE
fuzzy: nu
pred: eq-bi-ideal
holds: false
witness: x=b y=e z=b gamma=g delta=g
""",
    ("check", "ex34nu", "--fuzzy", "nu", "--pred", "ab-bi-ideal:in,invq"): """\
file: FILE
fuzzy: nu
pred: ab-bi-ideal:in,invq
holds: false
witness: x=b y=e z=b gamma=g delta=g t=1/4 r=1/4
""",
    ("search", "--want", "eq_subsemigroup AND NOT eq_bi_ideal", "--n", "3", "--exhaustive",
     "--grid", "2"): """\
want: eq_subsemigroup AND NOT eq_bi_ideal
structures_scanned: 3
subsets_scanned: 53
found: true
cayley g0: 000/000/002
mu: 0 0 1/2
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
        "ex34nu": _write(tmp_path, "ex34nu.gsf", EX34_TEXT + "fuzzy nu b=1/2\n"),
        "ex46": _write(tmp_path, "ex46.gsf",
                       print_document(document_for(ex46.structure, ex46.fuzzy))),
    }
    for argv, expected in PINNED_OUTPUT.items():
        path = paths.get(argv[1])
        if path is not None:
            argv = (argv[0], path, *argv[2:])
            expected = expected.replace("FILE", path)
        assert _run(capsys, list(argv)) == (0, expected), argv
