"""Command-line surface.

Exit codes follow one convention everywhere: 0 all checks pass, 1 a
mathematical property failed, 2 malformed input.  Witnesses go to
stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .construct import (
    THEOREMS,
    ConstructionSpec,
    HypothesisReport,
    SpecInvalid,
    check_for,
    construct_eq1,
    construct_eq2,
)
from .fileio import (
    FileFormatError,
    find_lattice_for_table,
    parse_lattice,
    parse_table,
    render_lattice,
    render_table,
)
from .gen import ExhaustedRejection, GenConfig, gen_spec
from .lattice import BoundedLattice, LatticeError, case_regions, ids_of
from .optable import AxiomReport, NeutralOutsideCarrier, OpTable, is_uninorm
from .verify import UnknownClause, find_counterexample, verify_equivalence

PASS, MATH_FAIL, BAD_INPUT = 0, 1, 2

# unreadable, undecodable, malformed, or naming an unknown element
_INPUT_ERRORS = (OSError, UnicodeDecodeError, FileFormatError, KeyError)


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def format_axiom_report(report: AxiomReport, lat: BoundedLattice) -> list[str]:
    nm = lat.name
    lines = []
    if report.commutative is not None:
        a, b, ab, ba = report.commutative
        lines.append(
            f"commutativity violated: U({nm(a)},{nm(b)}) = {nm(ab)} "
            f"but U({nm(b)},{nm(a)}) = {nm(ba)}"
        )
    if report.associative is not None:
        a, b, c, left, right = report.associative
        lines.append(
            f"associativity violated: U(U({nm(a)},{nm(b)}),{nm(c)}) = {nm(left)} "
            f"but U({nm(a)},U({nm(b)},{nm(c)})) = {nm(right)}"
        )
    if report.monotone is not None:
        a, b, c, ua, ub, side = report.monotone
        pair_a, pair_b = ((a, c), (b, c)) if side == "left" else ((c, a), (c, b))
        lines.append(
            f"monotonicity violated: {nm(a)} <= {nm(b)} but "
            f"U({','.join(map(nm, pair_a))}) = {nm(ua)} is not <= "
            f"U({','.join(map(nm, pair_b))}) = {nm(ub)}"
        )
    if report.neutral is not None:
        x, got = report.neutral
        e = report.neutral_element
        lines.append(
            f"neutrality violated: U({nm(e)},{nm(x)}) or U({nm(x)},{nm(e)}) "
            f"= {nm(got)}, expected {nm(x)}"
        )
    if report.closed is not None:
        a, b, v = report.closed
        lines.append(
            f"closure violated: U({nm(a)},{nm(b)}) = {nm(v)} lies outside the carrier"
        )
    return lines


def format_hypothesis_report(report, lat: BoundedLattice) -> list[str]:
    nm = lat.name
    lines = [f"theorem {report.theorem}: anchor class = {report.anchor_class}"]
    profile = THEOREMS[report.theorem]
    clauses = (
        (profile.pairs_clause, report.join_pairs_ok,
         lambda a, b, v: f"({nm(a)},{nm(b)}) -> {nm(v)}"),
        (profile.anchor_clause, report.join_anchor_ok,
         lambda a, v: f"{nm(a)} -> {nm(v)}"),
        ("parallel-condition", report.parallel_condition_ok,
         lambda a, b: f"({nm(a)},{nm(b)}) comparable"),
    )
    for label, clause, where in clauses:
        if clause is not None:
            outcome = "pass" if clause.ok else "FAIL at " + where(*clause.witness)
            lines.append(f"  {label}: {outcome}")
    lines.append(f"  inner-class: {'pass' if report.inner_in_ub else 'FAIL'}")
    lines.append(f"  nonempty-guard: {report.nonempty_guard}")
    return lines


def _load_lattice(path: str) -> tuple[str, BoundedLattice]:
    return parse_lattice(Path(path).read_text())


def _parse_table_for(text: str, lattice_name: str, lat: BoundedLattice) -> OpTable:
    """Parse a table file that must name the lattice it is read with."""
    table_lattice, table = parse_table(text, lat)
    if table_lattice != lattice_name:
        raise FileFormatError(
            f"table is written for lattice {table_lattice!r}, not {lattice_name!r}"
        )
    return table


def _spec_from_args(args) -> tuple[ConstructionSpec, str, str]:
    """Build a spec from CLI flags; returns (spec, orientation, lattice name)."""
    name, lat = _load_lattice(args.lattice)
    inner = _parse_table_for(Path(args.ustar).read_text(), name, lat)
    threshold_name = args.rho if args.rho is not None else args.sigma
    orientation = "join" if args.rho is not None else "meet"
    spec = ConstructionSpec(
        lattice=lat,
        threshold=lat.index(threshold_name),
        neutral=lat.index(args.e),
        anchor=lat.index(args.anchor),
        inner=inner,
    )
    return spec, orientation, name


# -- subcommands --------------------------------------------------------------


def cmd_check_lattice(args) -> int:
    try:
        name, lat = _load_lattice(args.path)
    except OSError as exc:
        _err(f"cannot read file: {exc}")
        return BAD_INPUT
    except (UnicodeDecodeError, FileFormatError) as exc:
        _err(f"parse error: {exc}")
        return BAD_INPUT
    except LatticeError as exc:
        _err(f"not a bounded lattice: {exc}")
        return MATH_FAIL
    print(
        f"{name}: bounded lattice with {lat.n} elements, "
        f"bottom {lat.name(lat.bottom)!r}, top {lat.name(lat.top)!r}"
    )
    if args.e is not None and args.rho is not None:
        try:
            regions = case_regions(lat, lat.index(args.e), lat.index(args.rho))
        except (KeyError, LatticeError) as exc:
            _err(str(exc))
            return BAD_INPUT
        labels = (
            ("[bottom, e]", regions.low),
            ("(e, rho]", regions.mid),
            ("beside e (inside)", regions.side_inner),
            ("beside rho (outside)", regions.side_outer),
            ("beside both", regions.isolated),
            ("(rho, top]", regions.high),
        )
        for label, mask in labels:
            print(f"  {label}: {{{', '.join(lat.name(x) for x in ids_of(mask))}}}")
    return PASS


def cmd_construct(args) -> int:
    if (args.rho is not None) != (args.eq == 1):
        _err(f"--eq {args.eq} takes its threshold with {'--rho' if args.eq == 1 else '--sigma'}")
        return BAD_INPUT
    try:
        spec, orientation, name = _spec_from_args(args)
    except _INPUT_ERRORS as exc:
        _err(f"parse error: {exc}")
        return BAD_INPUT
    except LatticeError as exc:
        _err(f"invalid lattice: {exc}")
        return MATH_FAIL
    lat = spec.lattice
    construct = construct_eq1 if orientation == "join" else construct_eq2
    try:
        table = construct(spec, check_inner=not args.no_verify_inner)
    except SpecInvalid as exc:
        _err(f"invalid spec: {exc}")
        return MATH_FAIL

    rendered = render_table(table, args.format, lattice_name=name)
    if args.out:
        try:
            Path(args.out).write_text(rendered)
        except OSError as exc:
            _err(f"cannot write file: {exc}")
            return BAD_INPUT
    else:
        sys.stdout.write(rendered)

    try:
        if spec.threshold not in (lat.bottom, lat.top):
            report = _matching_report(spec, orientation)
            for line in format_hypothesis_report(report, lat):
                _err(line)
        else:
            _err("no hypothesis report: threshold sits on a lattice bound")
    except SpecInvalid as exc:
        _err(f"no hypothesis report: {exc}")

    if args.verify:
        axioms = is_uninorm(table, spec.neutral)
        if axioms.ok:
            _err("verify: uninorm axioms all pass")
        else:
            for line in format_axiom_report(axioms, lat):
                _err(line)
            return MATH_FAIL
    return PASS


def _matching_report(spec: ConstructionSpec, orientation: str) -> HypothesisReport:
    """The report of the theorem whose anchor class holds the spec's anchor:
    th33/th36 beside the threshold, th31/th34 elsewhere."""
    side, other = ("th33", "th31") if orientation == "join" else ("th36", "th34")
    report = check_for(spec, side)
    return report if report.anchor_class == "beside_threshold" else check_for(spec, other)


def cmd_verify(args) -> int:
    try:
        table_text, lattice_text = find_lattice_for_table(args.table, args.lattice)
        name, lat = parse_lattice(lattice_text)
        table = _parse_table_for(table_text, name, lat)
        e = lat.index(args.e)
    except _INPUT_ERRORS as exc:
        _err(f"parse error: {exc}")
        return BAD_INPUT
    except LatticeError as exc:
        _err(f"invalid lattice: {exc}")
        return BAD_INPUT
    try:
        report = is_uninorm(table, e)
    except NeutralOutsideCarrier as exc:
        _err(f"invalid input: {exc}")
        return BAD_INPUT
    if report.ok:
        print("uninorm: all axioms pass")
        return PASS
    for line in format_axiom_report(report, lat):
        _err(line)
    return MATH_FAIL


def cmd_theorem(args) -> int:
    try:
        spec, orientation, _ = _spec_from_args(args)
    except _INPUT_ERRORS as exc:
        _err(f"parse error: {exc}")
        return BAD_INPUT
    except LatticeError as exc:
        _err(f"invalid lattice: {exc}")
        return BAD_INPUT
    profile = THEOREMS[args.which]
    if profile.orientation != orientation:
        _err(f"{args.which} expects --{'rho' if profile.orientation == 'join' else 'sigma'}")
        return BAD_INPUT
    try:
        report = check_for(spec, args.which)
    except SpecInvalid as exc:
        _err(f"invalid spec: {exc}")
        return BAD_INPUT
    for line in format_hypothesis_report(report, spec.lattice):
        print(line)
    failures = report.standing_failures()
    if failures:
        print(f"prediction refused: standing hypothesis failed ({failures[0]})")
        return PASS
    verdict = verify_equivalence(spec, args.which)
    print(f"predicted uninorm: {verdict.predicted}")
    print(f"brute-force verdict: {verdict.observed}")
    print(f"agree: {verdict.agree}")
    if not verdict.agree:
        _err("DISAGREEMENT: prediction contradicts exhaustive verification")
        if verdict.counterwitness:
            for line in format_axiom_report(verdict.report, spec.lattice):
                _err(line)
        return MATH_FAIL
    return PASS


def _fuzz_seed(args) -> int:
    """``--seed``, else ``LATNORM_SEED``, else 0; read only when fuzz runs."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("LATNORM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LATNORM_SEED must be an integer, got {raw!r}") from None


def cmd_fuzz(args) -> int:
    theorem = args.theorem
    if theorem not in THEOREMS:
        _err(f"unknown theorem {theorem!r}")
        return BAD_INPUT
    if args.seeds < 0:
        _err(f"--seeds must be a non-negative count, got {args.seeds}")
        return BAD_INPUT
    if args.drop_clause is not None and args.size is not None:
        _err("--size does not apply to --drop-clause, whose search draws sizes 5..9")
        return BAD_INPUT
    size = (4, 9) if args.size is None else tuple(args.size)
    try:
        GenConfig(seed=0, size_range=size)  # rejects a --size outside the generator's range
        seed = _fuzz_seed(args)
    except ValueError as exc:
        _err(f"invalid fuzz input: {exc}")
        return BAD_INPUT
    if args.drop_clause is not None:
        try:
            hit = find_counterexample(theorem, args.drop_clause, budget=args.seeds, seed=seed)
        except UnknownClause as exc:
            _err(str(exc))
            return BAD_INPUT
        if hit is None:
            print(f"no counterexample within {args.seeds} instances")
            return PASS
        if args.dump and not _dump_instance(hit.spec, Path(args.dump), f"counterexample-{theorem}"):
            return BAD_INPUT
        print(f"counterexample found ({hit.source}); dropped clause: {hit.dropped_clause}")
        for line in format_axiom_report(hit.axiom_report, hit.spec.lattice):
            _err(line)
        return PASS

    classes = THEOREMS[theorem].anchor_classes
    agree = 0
    for i in range(args.seeds):
        anchor_class = classes[i % len(classes)]
        try:
            spec = gen_spec(
                GenConfig(seed=seed + i, size_range=size),
                anchor_class,
                want_hypotheses=True,
                theorem=theorem,
            )
        except ExhaustedRejection as exc:
            _err(f"seed {seed + i}: {exc}")
            return BAD_INPUT
        verdict = verify_equivalence(spec, theorem)
        if verdict.agree:
            agree += 1
        else:
            stem = f"disagreement-{theorem}-{seed + i}"
            if args.dump and not _dump_instance(spec, Path(args.dump), stem):
                return BAD_INPUT
            _err(f"seed {seed + i}: prediction {verdict.predicted} but verdict {verdict.observed}")
            for line in format_axiom_report(verdict.report, spec.lattice):
                _err(line)
            print(f"{agree}/{args.seeds} agree")
            return MATH_FAIL
    print(f"{agree}/{args.seeds} agree")
    return PASS


def _dump_instance(spec: ConstructionSpec, directory: Path, stem: str) -> bool:
    """Write the instance's lattice and inner table under ``directory``;
    False, after one line on stderr, when they cannot be written."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{stem}.lattice.json").write_text(render_lattice(spec.lattice, stem))
        (directory / f"{stem}.Ustar.table.json").write_text(
            render_table(spec.inner, "json", lattice_name=stem)
        )
    except OSError as exc:
        _err(f"cannot write file: {exc}")
        return False
    return True


def cmd_corpus(args) -> int:
    if args.replay:
        report = corpus_mod.replay_all()
        for entry in report.entries:
            status = "ok" if entry.ok else "FAIL"
            print(
                f"{entry.id}: {status} "
                f"(diff={len(entry.diff_cells)} cells, "
                f"diff-matches-errata={entry.diff_matches_errata}, "
                f"verdict-ok={entry.verdict_ok}, witness-ok={entry.witness_ok})"
            )
        passed = sum(e.ok for e in report.entries)
        print(f"{passed}/{len(report.entries)} entries reproduce")
        return PASS if report.ok else MATH_FAIL
    out = Path(args.export)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for entry in corpus_mod.all_entries():
            (out / f"{entry.id}.lattice.json").write_text(
                render_lattice(entry.lattice, entry.id)
            )
            (out / f"{entry.id}.Ustar.table.json").write_text(
                render_table(entry.spec.inner, "json", lattice_name=entry.id)
            )
            key = entry.constructed_key
            (out / f"{entry.id}.{key}.table.json").write_text(
                render_table(entry.stored, "json", lattice_name=entry.id)
            )
    except OSError as exc:
        _err(f"cannot write file: {exc}")
        return BAD_INPUT
    print(f"exported {len(corpus_mod.ENTRY_IDS)} entries to {out}")
    return PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latnorm",
        description="Bounded lattices, uninorm constructions, exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lattice", help="validate a lattice file")
    p.add_argument("path")
    p.add_argument("--e", help="neutral element for the region breakdown")
    p.add_argument("--rho", help="threshold element for the region breakdown")
    p.set_defaults(fn=cmd_check_lattice)

    p = sub.add_parser("construct", help="run a threshold construction")
    p.add_argument("lattice")
    p.add_argument("ustar")
    p.add_argument("--eq", type=int, choices=(1, 2), required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", help="threshold for the join form (--eq 1)")
    group.add_argument("--sigma", help="threshold for the meet form (--eq 2)")
    p.add_argument("--e", required=True, help="neutral element")
    p.add_argument("--anchor", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--verify", action="store_true", help="also run the axiom battery")
    p.add_argument(
        "--no-verify-inner",
        action="store_true",
        help="skip inner-table verification (experiments with broken inners)",
    )
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="exhaustive uninorm axiom check on a table file")
    p.add_argument("table")
    p.add_argument("--e", required=True)
    p.add_argument("--lattice", help="lattice file (default: sibling <name>.lattice.json)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("theorem", help="hypothesis report plus equivalence run")
    p.add_argument("--which", choices=tuple(THEOREMS), required=True)
    p.add_argument("lattice")
    p.add_argument("ustar")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho")
    group.add_argument("--sigma")
    p.add_argument("--e", required=True)
    p.add_argument("--anchor", required=True)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("fuzz", help="seeded equivalence fuzzing / clause-drop search")
    p.add_argument("--theorem", required=True)
    p.add_argument("--seeds", type=int, required=True, help="instance count")
    p.add_argument("--size", type=int, nargs=2, metavar=("MIN", "MAX"), help="default: 4 9")
    p.add_argument("--drop-clause")
    p.add_argument(
        "--seed",
        type=int,
        help="base seed (default: LATNORM_SEED or 0)",
    )
    p.add_argument("--dump", help="directory for counterexample artifacts")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("corpus", help="replay or export the example corpus")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--replay", action="store_true")
    group.add_argument("--export", metavar="DIR")
    p.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return PASS


if __name__ == "__main__":
    sys.exit(main())
