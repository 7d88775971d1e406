"""The four benchmark workloads: decide, verify, hunt and cli.

Each workload builds its inputs from the seed (build), runs one item with
every library call passed through the tracer (run_item), reduces an item's
output to plain data for the verdict digest (summarize) and checks an
output against the independent oracles in checks.py (check).  A summary is
a tuple whose first entry is the item's count of holding verdicts.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from time import perf_counter

import checks
from clock import Clock
from gsfuzz import (
    AlphaBetaPair,
    FuzzySubset,
    GammaSemigroup,
    characteristic,
    check_by_name,
    classify_structure,
    enumerate_homomorphisms,
    find_witness,
    image,
    is_alpha_beta_bi_ideal,
    is_alpha_beta_subsemigroup,
    is_eq_bi_ideal,
    is_eq_one_sided_ideal,
    is_eq_subsemigroup,
    is_fuzzy_bi_ideal,
    is_fuzzy_subsemigroup,
    o05_product,
    o_product,
    preimage,
    random_fuzzy,
    report_bi_ideal_equivalences,
    report_level_characterization,
    report_product_characterization,
    report_regular_intra_characterization,
    report_regularity_characterization,
    report_subsemigroup_equivalences,
    sample_eq_bi_ideals,
    validate_structure,
)
from gsfuzz.cli import document_for, parse, print_document, run
from gsfuzz.search import GeneratorConfig, generate_structures

PAIRS = [
    AlphaBetaPair.parse(f"{a},{b}")
    for a in ("in", "q", "invq")
    for b in ("in", "q", "invq", "inandq")
]


def _frac(values) -> tuple:
    return tuple(str(v) for v in values)


def _witness(w) -> tuple | None:
    if w is None:
        return None
    return (w.x, w.y, w.gamma, w.z, w.delta, str(w.t), str(w.r))


def _decide(tr, layer, fn, *args):
    verdict = tr.call(layer, fn, *args)
    if verdict.holds:
        tr.count(layer + ".holds")
    return verdict


def _exhaustive(tr, n, k, count=0):
    config = GeneratorConfig(n=n, k=k, count=count)
    return tr.call(
        "search.generate_structures",
        lambda: list(generate_structures(config, exhaustive=True)),
    )


def _random_fuzzy(tr, s, seed, count):
    config = GeneratorConfig(n=s.n, k=s.k, seed=seed, grid=10, count=count)
    return tr.call("search.random_fuzzy", lambda: list(random_fuzzy(s, config)))


class Workload:
    """Defaults; each workload overrides what differs."""

    children_rss = False  # peak RSS of this process, not of its subprocesses

    def units(self, out) -> int:
        """Throughput units one item's output stands for."""
        return 1

    def clock(self) -> Clock:
        """Scales item times to the reference speed (clock.py)."""
        return Clock()


def _relabel(s, perm) -> GammaSemigroup:
    """The isomorphic copy of s in which element i is renamed perm[i]."""
    inv = [0] * s.n
    for i, p in enumerate(perm):
        inv[p] = i
    cube = tuple(
        tuple(tuple(perm[s.cayley[inv[x]][c][inv[y]]] for y in range(s.n)) for c in range(s.k))
        for x in range(s.n)
    )
    return GammaSemigroup(s.elements, s.gammas, cube)


def _canonical(s) -> tuple:
    """Smallest flattened cube over all carrier relabellings."""
    return min(
        tuple(v for plane in _relabel(s, p).cayley for row in plane for v in row)
        for p in permutations(range(s.n))
    )


# ----------------------------------------------------------------- decide

CLOSED = (
    ("fuzzy-subsemigroup", is_fuzzy_subsemigroup),
    ("fuzzy-bi-ideal", is_fuzzy_bi_ideal),
    ("eq-subsemigroup", is_eq_subsemigroup),
    ("eq-bi-ideal", is_eq_bi_ideal),
    ("eq-left-ideal", lambda mu: is_eq_one_sided_ideal(mu, "left")),
    ("eq-right-ideal", lambda mu: is_eq_one_sided_ideal(mu, "right")),
)


def _direct_product(s1, s2) -> GammaSemigroup:
    pairs = [(a, b) for a in range(s1.n) for b in range(s2.n)]
    index = {p: i for i, p in enumerate(pairs)}
    cube = tuple(
        tuple(
            tuple(index[(s1.cayley[a][c][y1], s2.cayley[b][c][y2])] for y1, y2 in pairs)
            for c in range(s1.k)
        )
        for a, b in pairs
    )
    return GammaSemigroup(tuple(f"p{i}" for i in range(len(pairs))), s1.gammas, cube)


def _modular(n, gammas) -> GammaSemigroup:
    cube = [[[(x * g * y) % n for y in range(n)] for g in gammas] for x in range(n)]
    names = [f"g{i}" for i in range(len(gammas))]
    return validate_structure([str(i) for i in range(n)], names, cube)


def _size4(tr, rng, k, count) -> list:
    """Order-4 structures: direct products, modular carriers, relabelled copies."""
    twos = _exhaustive(tr, 2, k)
    pool = [_direct_product(a, b) for a in twos for b in twos]
    if k == 1:
        pool += [_modular(4, (1,)), _modular(4, (3,))]
    else:
        pool += [_modular(4, gs) for gs in [(a, b) for a in (1, 3, 5, 7) for b in (1, 3, 5, 7)]]
    seen, out = set(), []
    for s in pool:
        if s.cayley not in seen:
            seen.add(s.cayley)
            out.append(s)
    base = list(out)
    perms = list(permutations(range(4)))
    while len(out) < count:
        s = _relabel(rng.choice(base), rng.choice(perms))
        if s.cayley not in seen:
            seen.add(s.cayley)
            out.append(s)
    return out[:count]


class Decide(Workload):
    """All closed-form deciders and all 12 (alpha, beta) pairs per pair."""

    min_pairs = 3600
    oracle_pairs = 32

    def build(self, seed, tr):
        """The corpus's pairs, each relabelled by a seeded carrier permutation.

        The structures and the mu drawn on them are the same for every seed,
        so every seed decides the same pairs up to isomorphism: the answers
        and the work stay put while the inputs and the witnesses change.
        """
        rng = random.Random(seed)
        fixed = random.Random(0)
        structures = (
            _exhaustive(tr, 1, 1) + _exhaustive(tr, 2, 1) + _exhaustive(tr, 2, 2)
            + _exhaustive(tr, 3, 1) + _exhaustive(tr, 3, 2, count=80)
            + _size4(tr, fixed, 1, 50) + _size4(tr, fixed, 2, 40)
        )
        per = -(-self.min_pairs // len(structures))
        items = []
        for i, s in enumerate(structures):
            perm = rng.sample(range(s.n), s.n)
            copy = _relabel(s, perm)
            for mu in _random_fuzzy(tr, s, 10007 + i, per):
                grades = [mu.grades[0]] * s.n
                for x, p in enumerate(perm):
                    grades[p] = mu.grades[x]
                items.append((copy, FuzzySubset(copy, tuple(grades))))
        self.oracle = set(rng.sample(range(len(items)), min(self.oracle_pairs, len(items))))
        return items

    def run_item(self, item, tr):
        _, mu = item
        closed = tuple(_decide(tr, "predicates.closed_form", fn, mu) for _, fn in CLOSED)
        ab = tuple(
            (
                _decide(tr, "predicates.alpha_beta", is_alpha_beta_subsemigroup, mu, p),
                _decide(tr, "predicates.alpha_beta", is_alpha_beta_bi_ideal, mu, p),
            )
            for p in PAIRS
        )
        return closed, ab

    def summarize(self, item, out):
        closed, ab = out
        verdicts = list(closed) + [v for pair in ab for v in pair]
        return (
            sum(v.holds for v in verdicts),
            [(v.holds, _witness(v.witness)) for v in verdicts],
        )

    def check(self, index, item, out):
        _, mu = item
        closed, ab = out
        by_name = {name: v.holds for (name, _), v in zip(CLOSED, closed)}
        problems = [
            p for (name, _), v in zip(CLOSED, closed)
            if (p := checks.closed_witness_problem(name, mu, v))
        ]
        ab_of = {(p.alpha.token, p.beta.token): v for p, v in zip(PAIRS, ab)}
        expect = {
            ("in", "invq"): ("eq-subsemigroup", "eq-bi-ideal"),
            ("in", "in"): ("fuzzy-subsemigroup", "fuzzy-bi-ideal"),
        }
        for key, (sub_name, bi_name) in expect.items():
            sub, bi = ab_of[key]
            if (sub.holds, bi.holds) != (by_name[sub_name], by_name[bi_name]):
                problems.append(f"({key[0]},{key[1]}) disagrees with {sub_name}/{bi_name}")
        for p, (sub, bi) in zip(PAIRS, ab):
            for label, v in ((f"sub {p.alpha.token},{p.beta.token}", sub),
                             (f"bi {p.alpha.token},{p.beta.token}", bi)):
                if problem := checks.alpha_beta_witness_problem(label, mu, p, v):
                    problems.append(problem)
            if index in self.oracle:
                if sub.holds != checks.sweep_alpha_beta(mu, p.alpha, p.beta, False):
                    problems.append(f"sub {p.alpha.token},{p.beta.token} disagrees with the sweep")
                if bi.holds != checks.sweep_alpha_beta(mu, p.alpha, p.beta, True):
                    problems.append(f"bi {p.alpha.token},{p.beta.token} disagrees with the sweep")
        return problems


# ----------------------------------------------------------------- verify

MU_REPORTS = (
    ("theorems.thm3_2", lambda mu: report_subsemigroup_equivalences(mu)),
    ("theorems.thm3_5", lambda mu: report_bi_ideal_equivalences(mu)),
    ("theorems.thm4_23", lambda mu: report_level_characterization(mu, "subsemigroup")),
    ("theorems.thm4_24", lambda mu: report_level_characterization(mu, "bi_ideal")),
    ("theorems.thm4_25", lambda mu: report_product_characterization(mu, "subsemigroup")),
    ("theorems.thm4_26", lambda mu: report_product_characterization(mu, "bi_ideal")),
)


class Verify(Workload):
    """Theorem reports, products and homomorphisms per structure."""

    samples = 24      # bi-ideals drawn per structure
    mu_samples = 3    # of which this many get the mu-level reports
    hom_samples = 2   # and this many are pushed through each homomorphism
    drawn_k2 = 40

    def build(self, seed, tr):
        rng = random.Random(seed)
        group1 = _exhaustive(tr, 1, 1) + _exhaustive(tr, 2, 1) + _exhaustive(tr, 3, 1)
        all_k2 = _exhaustive(tr, 3, 2)
        group2 = [all_k2[i] for i in sorted(rng.sample(range(len(all_k2)), self.drawn_k2))]
        return [
            (s, group, seed * 10007 + i)
            for i, (s, group) in enumerate(
                [(s, group1) for s in group1] + [(s, group2) for s in group2]
            )
        ]

    def run_item(self, item, tr):
        s, group, sample_seed = item
        samples = tr.call(
            "search.sample_eq_bi_ideals", sample_eq_bi_ideals, s, self.samples, sample_seed, 10
        )
        tr.count("search.sample_eq_bi_ideals.requested", self.samples)
        tr.count("search.sample_eq_bi_ideals.returned", len(samples))
        reg = tr.call("theorems.thm4_28", report_regularity_characterization, s, samples)
        intra = tr.call("theorems.thm4_29", report_regular_intra_characterization, s, samples)
        one = characteristic(s, range(s.n))
        per_mu = []
        for mu in samples[: self.mu_samples]:
            reports = tuple(tr.call(layer, fn, mu) for layer, fn in MU_REPORTS)
            products = (
                tr.call("fuzzy.o_product", o_product, mu, mu),
                tr.call("fuzzy.o_product", o_product,
                        tr.call("fuzzy.o_product", o_product, mu, one), mu),
                tr.call("fuzzy.o05_product", o05_product, mu, mu),
                tr.call("fuzzy.o05_product", o05_product,
                        tr.call("fuzzy.o05_product", o05_product, mu, one), mu),
            )
            per_mu.append((mu, reports, products))
        homs = []
        for dst in group:
            found = tr.call(
                "structure.enumerate_homomorphisms", enumerate_homomorphisms, s, dst, True
            )
            tr.count("structure.enumerate_homomorphisms.maps", dst.n ** s.n)
            tr.count("structure.enumerate_homomorphisms.homs", len(found))
            for f in found:
                pushed = []
                for mu in samples[: self.hom_samples]:
                    im = tr.call("theorems.image", image, f, mu)
                    pre = tr.call("theorems.preimage", preimage, f, im)
                    flags = tuple(
                        _decide(tr, "predicates.closed_form", fn, nu).holds
                        for nu in (im, pre) for fn in (is_eq_subsemigroup, is_eq_bi_ideal)
                    )
                    pushed.append((mu, im, pre, flags))
                homs.append((dst, f.mapping, pushed))
        return samples, reg, intra, per_mu, homs

    def summarize(self, item, out):
        samples, reg, intra, per_mu, homs = out
        flags = [reg.condition_flags, intra.condition_flags]
        flags += [r.condition_flags for _, reports, _ in per_mu for r in reports]
        hom_flags = [fl for _, _, pushed in homs for _, _, _, fl in pushed]
        return (
            sum(f for group in flags + hom_flags for f in group),
            [_frac(mu.grades) for mu in samples],
            flags,
            [[_frac(p.grades) for p in products] for _, _, products in per_mu],
            [(list(mapping), [_frac(im.grades) for _, im, _, _ in pushed])
             for _, mapping, pushed in homs],
            hom_flags,
        )

    def check(self, index, item, out):
        s, group, _ = item
        samples, reg, intra, per_mu, homs = out
        problems = []
        if len(samples) > self.samples:
            problems.append(f"{len(samples)} samples for {self.samples} requested")
        if not all(checks.closed_bi(mu, checks.HALF) for mu in samples):
            problems.append("a sample is not an (in, in-or-q) bi-ideal")
        reports = [reg, intra] + [r for _, rs, _ in per_mu for r in rs]
        problems += [f"{r.theorem_id} disagrees" for r in reports if not r.agree]
        one = characteristic(s, range(s.n))
        for mu, _, (sq, sandwich, sq05, sandwich05) in per_mu:
            expected = (
                checks.naive_product(mu, mu),
                checks.naive_product(
                    FuzzySubset(s, checks.naive_product(mu, one)), mu),
                checks.naive_product(mu, mu, checks.HALF),
                checks.naive_product(
                    FuzzySubset(s, checks.naive_product(mu, one, checks.HALF)), mu, checks.HALF),
            )
            got = (sq.grades, sandwich.grades, sq05.grades, sandwich05.grades)
            if got != expected:
                problems.append(f"products of {_frac(mu.grades)} differ from a full scan")
            if not all(a <= b for p in (sq05, sandwich05) for a, b in zip(p.grades, mu.grades)):
                problems.append(f"o05 products of bi-ideal {_frac(mu.grades)} exceed it")
        for dst in group:
            got = [tuple(mapping) for d, mapping, _ in homs if d is dst]
            if got != checks.surjective_homs(s, dst):
                problems.append("surjective homomorphisms differ from a full scan")
                break
        for _, mapping, pushed in homs:
            for mu, im, pre, flags in pushed:
                fiber_max = [Fraction(0)] * im.structure.n
                for x, g in enumerate(mu.grades):
                    fiber_max[mapping[x]] = max(fiber_max[mapping[x]], g)
                if tuple(fiber_max) != im.grades:
                    problems.append(f"image along {mapping} is not the fiber maximum")
                if pre.grades != tuple(im.grades[mapping[x]] for x in range(s.n)):
                    problems.append(f"preimage along {mapping} is not im o f")
                if not all(flags):
                    problems.append(f"image/preimage along {mapping} lost the bi-ideal property")
        return problems


# ------------------------------------------------------------------- hunt

# Pair-mode scans take about a second each and unary scans a tenth of that,
# so a pass holds few pair scans and many unary ones: enough distinct items
# for a tail percentile, with the pair hunt still near half the candidates.
# The structures are labelled copies drawn by the seed from fixed
# isomorphism classes of 3-element semigroups (one Gamma symbol), given by
# their smallest relabelled Cayley table, so every seed does the same mix of
# work.  The pair classes: two without a pair witness, one with.
PAIR_CLASSES = (
    (0, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 2, 0, 0, 2, 2, 2, 0),
    (0, 0, 0, 0, 1, 0, 2, 2, 2),
)
UNARY_COPIES = 3  # of every class with six distinct labelled copies
PAIR_HUNT = ("union_of_two_eq_subsemigroups AND NOT eq_subsemigroup", 4)
UNARY_HUNT = ("eq_ideal AND NOT eq_bi_ideal", 10)


class Hunt(Workload):
    """Pair-mode and never-found unary witness hunts, one structure per call."""


    def build(self, seed, tr):
        rng = random.Random(seed)
        by_class: dict = {}
        for s in _exhaustive(tr, 3, 1):
            by_class.setdefault(_canonical(s), []).append(s)
        items = [(PAIR_HUNT, rng.choice(by_class[c])) for c in PAIR_CLASSES]
        for c in sorted(c for c, copies in by_class.items() if len(copies) == 6):
            items += [(UNARY_HUNT, s) for s in rng.sample(by_class[c], UNARY_COPIES)]
        rng.shuffle(items)
        return items

    def units(self, out):
        return out.subsets_scanned

    def run_item(self, item, tr):
        (want, grid), s = item
        result = tr.call("search.find_witness", find_witness, [s], want, grid)
        tr.count("search.find_witness.candidates", result.subsets_scanned)
        return result

    def summarize(self, item, out):
        return (
            int(out.found),
            out.structures_scanned,
            out.subsets_scanned,
            [_frac(mu.grades) for mu in out.subsets],
        )

    def check(self, index, item, out):
        (want, grid), s = item
        per_structure = (grid + 1) ** s.n - 1
        if out.structures_scanned != 1:
            return [f"scanned {out.structures_scanned} structures, given 1"]
        if (want, grid) == UNARY_HUNT:
            if out.found or out.subsets_scanned != per_structure:
                return [f"unary hunt: found={out.found} after {out.subsets_scanned} subsets, "
                        f"expected none after {per_structure}"]
            return []
        if not out.found:
            if out.subsets_scanned != per_structure ** 2:
                return [f"pair hunt stopped after {out.subsets_scanned} of {per_structure ** 2}"]
            return []
        m1, m2, union = out.subsets
        union_grades = tuple(max(a, b) for a, b in zip(m1.grades, m2.grades))
        if not (checks.closed_sub(m1, checks.HALF) and checks.closed_sub(m2, checks.HALF)
                and union.grades == union_grades
                and not checks.closed_sub(union, checks.HALF)):
            return [f"pair witness {_frac(m1.grades)} / {_frac(m2.grades)} does not separate"]
        return []


# -------------------------------------------------------------------- cli

FIXTURES = ("ex3.4", "ex4.6", "ex4.27", "ex2.1-mod-12")
# A bare interpreter's start-up on an idle core of a 2-vCPU x86-64 VM,
# Python 3.11.7: the reference time of the cli workload's clock.
REFERENCE_START_S = 0.06
SEEDED_SHAPES = ((3, 1), (3, 1), (2, 2), (2, 2))  # (n, k) of the seeded files


class Cli(Workload):
    """gsf commands as subprocesses on fixture files and seeded structures."""

    children_rss = True

    def __init__(self, workdir: Path, src: Path):
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def clock(self) -> Clock:
        """Scales by a bare interpreter's start-up, timed about once a second.

        The in-process kernel does not track how fast a subprocess starts.
        """
        return Clock(self._bare_start, REFERENCE_START_S, every=1.0)

    def _bare_start(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            self._spawn(["-c", "pass"])
            best = min(best, perf_counter() - t0)
        return best

    def _spawn(self, argv):
        done = subprocess.run(
            [sys.executable, *argv], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def build(self, seed, tr):
        rng = random.Random(seed)
        files = []
        for fid in FIXTURES:
            code, out = self._spawn(["-m", "gsfuzz", "fixtures", "write", fid, f"{fid}.gsf"])
            if code != 0:
                raise RuntimeError(f"gsf fixtures write {fid} exited {code}: {out}")
            files.append((f"{fid}.gsf", fid != "ex2.1-mod-12"))
        for i, (n, k) in enumerate(SEEDED_SHAPES):
            config = GeneratorConfig(n=n, k=k, seed=rng.randrange(1 << 32), count=1)
            s = tr.call("search.generate_structures", lambda: list(generate_structures(config)))[0]
            mu, nu = _random_fuzzy(tr, s, rng.randrange(1 << 32), 2)
            name = f"seeded-{i}-n{n}k{k}.gsf"
            (self.workdir / name).write_text(
                print_document(document_for(s, {"mu": mu, "nu": nu})), encoding="utf-8"
            )
            files.append((name, True))
        items = []
        for name, has_mu in files:
            items += [("validate", name), ("classify", name)]
            if has_mu:
                p = rng.choice(PAIRS)
                for pred in ("eq-subsemigroup", "fuzzy-subsemigroup",
                             f"ab-bi-ideal:{p.alpha.token},{p.beta.token}"):
                    items.append(("check", name, "--fuzzy", "mu", "--pred", pred,
                                  "--expect", "true"))
                items.append(("theorems", name, "--fuzzy", "mu", "--samples", "10",
                              "--seed", str(rng.randrange(1000))))
            items.append(("enumerate", name, "--kind", "bi_ideal"))
        return items

    def run_item(self, item, tr):
        return tr.call("cli.subprocess", self._spawn, ["-m", "gsfuzz", *item])

    def probe(self, item, tr):
        """Traced runs only, untimed: the same command's layers in-process."""
        text = (self.workdir / item[1]).read_text(encoding="utf-8")
        doc = tr.call("cli.parse", parse, text)
        index = {name: i for i, name in enumerate(doc.elements)}
        cube = [[[index[doc.tables[g][x][y]] for y in range(len(doc.elements))]
                 for g in doc.gammas] for x in range(len(doc.elements))]
        tr.call("structure.validate_structure", validate_structure, doc.elements, doc.gammas, cube)
        argv = [item[0], str(self.workdir / item[1]), *item[2:]]
        with contextlib.redirect_stdout(io.StringIO()):
            tr.call("cli.run", run, argv)

    def summarize(self, item, out):
        code, stdout = out
        return (stdout.count("holds: true"), code, stdout.splitlines())

    def _load(self, name):
        doc = parse((self.workdir / name).read_text(encoding="utf-8"))
        return doc, doc.to_structure()

    def check(self, index, item, out):
        code, stdout = out
        lines = stdout.splitlines()
        command, name = item[0], item[1]
        doc, s = self._load(name)
        if command == "validate":
            expected = [f"file: {name}", "valid: true", f"elements: {s.n}", f"gammas: {s.k}"]
            ok = code == 0 and lines == expected
        elif command == "classify":
            flags = classify_structure(s)
            want = [f"{key}: {'true' if getattr(flags, key) else 'false'}"
                    for key in ("regular", "intra_regular", "left_duo", "right_duo", "duo")]
            ok = code == 0 and lines[1:6] == want
        elif command == "check":
            pred = item[5]
            verdict = check_by_name(pred, doc.fuzzy_subset(s, "mu"))
            holds = "holds: true" if verdict.holds else "holds: false"
            has_witness = any(line.startswith("witness: ") for line in lines)
            ok = (code == (0 if verdict.holds else 1) and holds in lines
                  and has_witness != verdict.holds)
        elif command == "theorems":
            ok = (code == 0 and "DISAGREE" not in stdout
                  and sum(line.endswith(": agree") for line in lines) == 8)
        else:
            ok = code == 0 and f"count: {checks.count_bi_ideals(s)}" in lines
        return [] if ok else [f"gsf {' '.join(item)} exited {code}: {lines[:8]}"]


def make(name: str, workdir: Path, src: Path) -> Workload:
    """The named workload; `cli` writes its files under workdir and runs src."""
    if name == "cli":
        return Cli(workdir, src)
    return {"decide": Decide, "verify": Verify, "hunt": Hunt}[name]()
