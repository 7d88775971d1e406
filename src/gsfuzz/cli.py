"""Structure files and the gsf command line.

File format (UTF-8, a leading byte-order mark ignored; line oriented, '#'
starts a comment):

    elements e a b
    gammas g
    table g
    e e e
    e a e
    e e b
    fuzzy mu e=1/2 a=3/5 b=3/5
    subset A e a

Row i, column j of the block under ``table g`` is the product
(element_i g element_j).  A table's rows are its next n non-blank lines, n
the number of elements, so an element may be named like a directive; a
directive line before the n-th row is a short table.  Names are single tokens
without '=', '#' or ':'.  Grades accept p/q or decimal literals, both parsed
exactly; fuzzy lines may omit elements, which default to grade 0.

``gsf search --count`` defaults to 20 random structures, or all with --exhaustive;
--count 0 also means all, so it needs --exhaustive.

Exit codes: 0 success, 1 --expect mismatch, 2 usage or parse error (an
all-zero fuzzy subset and a hit subset-scan cap or sampling budget
included), 3 invalid structure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

# Each subcommand imports the predicates, search and theorems names it runs,
# so a gsf process loads only what its subcommand needs.
from .errors import (
    BadRational,
    BudgetExhausted,
    CarrierTooLarge,
    DocumentError,
    DocumentSyntaxError,
    DuplicateName,
    EmptyFuzzySubset,
    GsfError,
    InvalidAlpha,
    InvalidGrade,
    MissingTable,
)
from .fuzzy import FuzzySubset, as_grade
from .structure import (
    _CRISP_KINDS,
    GammaSemigroup,
    classify_structure,
    classify_subset,
    enumerate_crisp,
    validate_structure,
)

if TYPE_CHECKING:
    from .predicates import Witness


@dataclass
class StructureDocument:
    """Parsed form of a .gsf file."""

    elements: list = field(default_factory=list)
    gammas: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)    # gamma name -> row-major names
    fuzzy: dict = field(default_factory=dict)     # name -> {element: Fraction}
    subsets: dict = field(default_factory=dict)   # name -> [element names]

    def to_structure(self) -> GammaSemigroup:
        eidx = {name: i for i, name in enumerate(self.elements)}
        cube = [
            [
                [eidx[self.tables[g][x][y]] for y in range(len(self.elements))]
                for g in self.gammas
            ]
            for x in range(len(self.elements))
        ]
        return validate_structure(self.elements, self.gammas, cube)

    def fuzzy_subset(self, structure: GammaSemigroup, name: str) -> FuzzySubset:
        if name not in self.fuzzy:
            raise DocumentError(f"no fuzzy subset named {name!r}")
        return FuzzySubset.from_mapping(structure, self.fuzzy[name])


def _grade_token(line_no: int, token: str) -> Fraction:
    try:
        return as_grade(token)
    except InvalidGrade as exc:
        raise BadRational(str(exc), line_no) from None


def _check_names(names, line_no: int | None = None) -> None:
    """Every name must read back as itself: one token, no '=', '#' or ':'."""
    for name in names:
        if not name or any(c.isspace() or c in "=#:" for c in name):
            raise DocumentSyntaxError(
                f"name {name!r} must be one token without '=', '#' or ':'", line_no
            )


_DIRECTIVES = ("elements", "gammas", "table", "fuzzy", "subset")


def _table_rows(doc: StructureDocument, gamma: str, lines, last_line: int) -> list:
    """Read the n rows of ``table gamma`` from the (line number, tokens) iterator."""
    n = len(doc.elements)
    rows: list = []
    for line_no, tokens in lines:
        if len(tokens) == n and all(name in doc.elements for name in tokens):
            rows.append(tokens)
            if len(rows) == n:
                return rows
            continue
        if tokens[0] in _DIRECTIVES:  # a directive that is no row: the table is short
            last_line = line_no
            break
        if len(tokens) == n:
            unknown = next(name for name in tokens if name not in doc.elements)
            raise DocumentSyntaxError(f"unknown element {unknown!r}", line_no)
        raise MissingTable(f"table row has {len(tokens)} entries, expected {n}", line_no)
    raise MissingTable(f"table {gamma!r} has {len(rows)} rows, expected {n}", last_line)


def parse(text: str) -> StructureDocument:
    """Parse a structure document; errors carry the offending line number."""
    doc = StructureDocument()
    raw_lines = text.splitlines()
    split = (
        (line_no, raw.split("#", 1)[0].split()) for line_no, raw in enumerate(raw_lines, start=1)
    )
    lines = ((line_no, tokens) for line_no, tokens in split if tokens)
    for line_no, tokens in lines:
        head = tokens[0]
        if head in ("elements", "gammas"):
            if getattr(doc, head):
                raise DuplicateName(f"{head} already declared", line_no)
            if len(tokens) < 2:
                raise DocumentSyntaxError(f"{head} line needs at least one name", line_no)
            if len(set(tokens[1:])) != len(tokens) - 1:
                raise DuplicateName(f"duplicate {head[:-1]} name", line_no)
            _check_names(tokens[1:], line_no)
            setattr(doc, head, tokens[1:])
        elif head == "table":
            if len(tokens) != 2:
                raise DocumentSyntaxError("usage: table GAMMA", line_no)
            if not doc.elements or not doc.gammas:
                raise DocumentSyntaxError("declare elements and gammas first", line_no)
            if tokens[1] not in doc.gammas:
                raise DocumentSyntaxError(f"unknown gamma {tokens[1]!r}", line_no)
            if tokens[1] in doc.tables:
                raise DuplicateName(f"table {tokens[1]!r} already given", line_no)
            doc.tables[tokens[1]] = _table_rows(doc, tokens[1], lines, len(raw_lines))
        elif head == "fuzzy":
            if len(tokens) < 2:
                raise DocumentSyntaxError("usage: fuzzy NAME el=grade ...", line_no)
            name = tokens[1]
            _check_names([name], line_no)
            if name in doc.fuzzy:
                raise DuplicateName(f"fuzzy {name!r} already given", line_no)
            grades = {}
            for tok in tokens[2:]:
                el, eq, val = tok.partition("=")
                if not eq or el not in doc.elements:
                    raise DocumentSyntaxError(f"bad grade assignment {tok!r}", line_no)
                if el in grades:
                    raise DuplicateName(f"element {el!r} graded twice", line_no)
                grades[el] = _grade_token(line_no, val)
            doc.fuzzy[name] = grades
        elif head == "subset":
            if len(tokens) < 2:
                raise DocumentSyntaxError("usage: subset NAME el ...", line_no)
            name = tokens[1]
            _check_names([name], line_no)
            if name in doc.subsets:
                raise DuplicateName(f"subset {name!r} already given", line_no)
            for el in tokens[2:]:
                if el not in doc.elements:
                    raise DocumentSyntaxError(f"unknown element {el!r}", line_no)
            doc.subsets[name] = tokens[2:]
        else:
            raise DocumentSyntaxError(f"unknown directive {head!r}", line_no)

    if not doc.elements:
        raise DocumentSyntaxError("missing elements line")
    if not doc.gammas:
        raise DocumentSyntaxError("missing gammas line")
    for g in doc.gammas:
        if g not in doc.tables:
            raise MissingTable(f"no table for gamma {g!r}")
    return doc


def print_document(doc: StructureDocument) -> str:
    """Canonical text form; parse(print_document(doc)) == doc.

    Raises DocumentSyntaxError for a name that the format cannot carry.
    """
    _check_names([*doc.elements, *doc.gammas, *doc.fuzzy, *doc.subsets])
    out = [
        "elements " + " ".join(doc.elements),
        "gammas " + " ".join(doc.gammas),
    ]
    for g in doc.gammas:
        out.append(f"table {g}")
        out.extend(" ".join(row) for row in doc.tables[g])
    for name, grades in doc.fuzzy.items():
        entries = " ".join(f"{el}={grades[el]}" for el in doc.elements if el in grades)
        out.append(f"fuzzy {name} {entries}".rstrip())
    for name, members in doc.subsets.items():
        out.append(f"subset {name} " + " ".join(members))
    return "\n".join(out) + "\n"


def document_for(structure: GammaSemigroup, fuzzy: dict | None = None) -> StructureDocument:
    doc = StructureDocument()
    doc.elements = list(structure.elements)
    doc.gammas = list(structure.gammas)
    for g, gname in enumerate(structure.gammas):
        doc.tables[gname] = [
            [structure.elements[structure.cayley[x][g][y]] for y in range(structure.n)]
            for x in range(structure.n)
        ]
    for name, mu in (fuzzy or {}).items():
        doc.fuzzy[name] = {
            el: mu.grades[i] for i, el in enumerate(structure.elements)
        }
    return doc


# ------------------------------------------------------------------ reports

def _b(value: bool) -> str:
    return "true" if value else "false"


def _witness_line(s: GammaSemigroup, w: Witness) -> str:
    parts = [f"x={s.elements[w.x]}", f"y={s.elements[w.y]}"]
    if w.z is not None:
        parts.append(f"z={s.elements[w.z]}")
    parts.append(f"gamma={s.gammas[w.gamma]}")
    if w.delta is not None:
        parts.append(f"delta={s.gammas[w.delta]}")
    if w.t is not None:
        parts.append(f"t={w.t}")
    if w.r is not None:
        parts.append(f"r={w.r}")
    return "witness: " + " ".join(parts)


# ------------------------------------------------------------- subcommands

def _load(path: str) -> tuple[StructureDocument, GammaSemigroup]:
    """The parsed file and its validated structure."""
    with open(path, encoding="utf-8-sig") as fh:
        doc = parse(fh.read())
    return doc, doc.to_structure()


def _cmd_validate(args) -> tuple[int, list]:
    _, s = _load(args.file)
    return 0, [f"file: {args.file}", "valid: true", f"elements: {s.n}", f"gammas: {s.k}"]


def _cmd_classify(args) -> tuple[int, list]:
    doc, s = _load(args.file)
    flags = classify_structure(s)
    out = [f"file: {args.file}"]
    for name in ("regular", "intra_regular", "left_duo", "right_duo", "duo"):
        out.append(f"{name}: {_b(getattr(flags, name))}")
    for name, members in doc.subsets.items():
        sub = classify_subset(s, s.subset_of_names(members))
        out.append(
            f"subset {name}: subsemigroup={_b(sub.subsemigroup)} "
            f"left_ideal={_b(sub.left_ideal)} right_ideal={_b(sub.right_ideal)} "
            f"bi_ideal={_b(sub.bi_ideal)}"
        )
    return 0, out


def _cmd_check(args) -> tuple[int, list]:
    from .predicates import check_by_name

    doc, s = _load(args.file)
    verdict = check_by_name(args.pred, doc.fuzzy_subset(s, args.fuzzy))
    out = [f"file: {args.file}", f"fuzzy: {args.fuzzy}", f"pred: {args.pred}",
           f"holds: {_b(verdict.holds)}"]
    if verdict.witness is not None:
        out.append(_witness_line(s, verdict.witness))
    code = 0
    if args.expect is not None:
        expected = args.expect == "true"
        out.append(f"expected: {_b(expected)}")
        if verdict.holds != expected:
            code = 1
    return code, out


def _cmd_theorems(args) -> tuple[int, list]:
    from .search import sample_eq_bi_ideals
    from .theorems import (
        report_bi_ideal_equivalences,
        report_level_characterization,
        report_product_characterization,
        report_regular_intra_characterization,
        report_regularity_characterization,
        report_subsemigroup_equivalences,
    )

    if args.grid < 1 or args.samples < 0:
        raise ValueError("need --grid >= 1, --samples >= 0")
    doc, s = _load(args.file)
    mu = doc.fuzzy_subset(s, args.fuzzy)
    out = [f"file: {args.file}", f"fuzzy: {args.fuzzy}"]
    reports = [
        report_subsemigroup_equivalences(mu),
        report_bi_ideal_equivalences(mu),
        report_level_characterization(mu, "subsemigroup"),
        report_level_characterization(mu, "bi_ideal"),
        report_product_characterization(mu, "subsemigroup"),
        report_product_characterization(mu, "bi_ideal"),
    ]
    samples = sample_eq_bi_ideals(s, args.samples, args.seed, args.grid)
    reports.append(report_regularity_characterization(s, samples))
    reports.append(report_regular_intra_characterization(s, samples))
    for rep in reports:
        out.append(f"{rep.theorem_id}: {'agree' if rep.agree else 'DISAGREE'}")
        out.append(
            f"{rep.theorem_id} flags: " + " ".join(_b(f) for f in rep.condition_flags)
        )
        if rep.discrepancy is not None:
            indices, detail = rep.discrepancy
            out.append(f"{rep.theorem_id} discrepancy: {indices} {detail}")
    code = 0 if all(r.agree for r in reports) else 1
    return code, out


def _cmd_enumerate(args) -> tuple[int, list]:
    _, s = _load(args.file)
    out = [f"file: {args.file}", f"kind: {args.kind}"]
    subsets = enumerate_crisp(s, args.kind)
    out.append(f"count: {len(subsets)}")
    for a in subsets:
        out.append("subset: " + " ".join(s.names_of(a)))
    return 0, out


def _cmd_search(args) -> tuple[int, list]:
    from .search import GeneratorConfig, find_witness, generate_structures

    count = args.count
    if count is None:  # the whole exhaustive corpus, or 20 random structures
        count = 0 if args.exhaustive else 20
    if args.n < 1 or args.k < 1 or args.grid < 1 or count < 0:
        raise ValueError("need --n >= 1, --k >= 1, --grid >= 1, --count >= 0")
    config = GeneratorConfig(n=args.n, k=args.k, seed=args.seed, grid=args.grid, count=count)
    structures = generate_structures(config, exhaustive=args.exhaustive)
    result = find_witness(structures, args.want, args.grid)
    out = [
        f"want: {args.want}",
        f"structures_scanned: {result.structures_scanned}",
        f"subsets_scanned: {result.subsets_scanned}",
        f"found: {_b(result.found)}",
    ]
    if result.found:
        s = result.structure
        for g, gname in enumerate(s.gammas):
            rows = "/".join(
                "".join(str(s.cayley[x][g][y]) for y in range(s.n)) for x in range(s.n)
            )
            out.append(f"cayley {gname}: {rows}")
        labels = ("mu",) if len(result.subsets) == 1 else ("mu1", "mu2", "union")
        for label, mu in zip(labels, result.subsets):
            out.append(f"{label}: " + " ".join(str(g) for g in mu.grades))
    return 0, out


def _cmd_fixtures(args) -> tuple[int, list]:
    from .search import fixtures

    pool = {f.id: f for f in fixtures()}
    if args.action == "list":
        return 0, [f"fixture: {fid}" for fid in pool]
    if args.id not in pool:
        raise DocumentError(f"unknown fixture {args.id!r}")
    fixture = pool[args.id]
    text = print_document(document_for(fixture.structure, fixture.fuzzy))
    if args.action == "show":
        return 0, [text.rstrip("\n")]
    with open(args.path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0, [f"wrote: {args.path}"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsf",
        description="Decide fuzzy-algebraic predicates over finite Gamma-semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a structure file")
    p.set_defaults(handler=_cmd_validate)
    p.add_argument("file")

    p = sub.add_parser("classify", help="crisp structure and subset flags")
    p.set_defaults(handler=_cmd_classify)
    p.add_argument("file")

    p = sub.add_parser("check", help="decide one predicate for one fuzzy subset")
    p.set_defaults(handler=_cmd_check)
    p.add_argument("file")
    p.add_argument("--fuzzy", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--expect", choices=["true", "false"])

    p = sub.add_parser("theorems", help="run the theorem reports")
    p.set_defaults(handler=_cmd_theorems)
    p.add_argument("file")
    p.add_argument("--fuzzy", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--grid", type=int, default=10)

    p = sub.add_parser("enumerate", help="enumerate crisp subsets of a kind")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("file")
    p.add_argument("--kind", required=True, choices=_CRISP_KINDS)

    p = sub.add_parser("search", help="hunt for a separating witness")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("--want", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int)
    p.add_argument("--exhaustive", action="store_true")

    p = sub.add_parser("fixtures", help="list or export the built-in fixtures")
    actions = p.add_subparsers(dest="action", required=True)
    for action, operands in (("list", ()), ("show", ("id",)), ("write", ("id", "path"))):
        q = actions.add_parser(action)
        q.set_defaults(handler=_cmd_fixtures)
        for operand in operands:
            q.add_argument(operand)

    return parser


def run(argv: list) -> int:
    """Execute one command; report on stdout; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, lines = args.handler(args)
    except (DocumentError, OSError, ValueError, InvalidAlpha, EmptyFuzzySubset) as exc:
        print(f"error: {exc}")
        return 2
    except GsfError as exc:
        # A cap or budget is a limit of the run, not a fault of the structure.
        print(f"error: {exc.__class__.__name__}: {exc}")
        return 2 if isinstance(exc, (CarrierTooLarge, BudgetExhausted)) else 3
    for line in lines:
        print(line)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
