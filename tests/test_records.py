"""The value records are NamedTuples.

Each prints the text the frozen dataclass it replaced printed (recorded
from that version), refuses attribute assignment, is equal to and hashes
like a record with the same fields, and is copied with ``_replace`` into
its own type.  Three classes stay dataclasses, since a tuple cannot hold
what they need: ``BoundedLattice`` and ``ConstructionSpec`` keep derived
values in their ``__dict__``, and ``GenConfig`` checks its fields when it
is built.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import latnorm
from latnorm import corpus
from latnorm.construct import THEOREMS, Clause, check_for
from latnorm.optable import is_uninorm
from latnorm.verify import Counterexample, Partition, verify_equivalence

HYPOTHESES = (
    "HypothesisReport(theorem='th31', anchor_class='under_neutral', "
    "join_pairs_ok=Clause(ok=True, witness=None), join_anchor_ok=Clause(ok=True, witness=None), "
    "parallel_condition_ok=Clause(ok=True, witness=None), inner_in_ub=True, nonempty_guard=True)"
)
PASSING_AXIOMS = (
    "AxiomReport(neutral_element=2, commutative=None, associative=None, monotone=None, "
    "neutral=None, closed=None)"
)
FAILING_AXIOMS = (
    "AxiomReport(neutral_element=2, commutative=None, associative=None, "
    "monotone=(4, 6, 5, 8, 7, 'left'), neutral=None, closed=None)"
)
ERRATUM = (
    "Erratum(row='e', col='f', printed='q', formula='f', repaired=True, "
    "note='neutral row must reproduce f; inner table and the symmetric cell (f,e) both give f')"
)
ENTRY_REPLAY = (
    "EntryReplay(id='L12', diff_cells=((2, 1),), diff_matches_errata=True, "
    "verdict_ok=True, witness_ok=True)"
)


def records(entries) -> dict:
    """Record name -> (one instance, the repr the dataclass printed)."""
    l11, l12, l13 = entries["L11"], entries["L12"], entries["L13"]
    report = check_for(l11.spec, "th31")
    axioms = is_uninorm(l13.stored, l13.spec.neutral)
    replay = corpus.replay_entry(l12)
    return {
        "Clause": (Clause(False, (1, 2)), "Clause(ok=False, witness=(1, 2))"),
        "HypothesisReport": (report, HYPOTHESES),
        "TheoremProfile": (
            THEOREMS["th33"],
            "TheoremProfile(id='th33', orientation='join', "
            "anchor_classes=('beside_threshold',), has_pairs_clause=False)",
        ),
        "AxiomReport": (axioms, FAILING_AXIOMS),
        "Partition": (
            Partition((frozenset({0, 1}), frozenset({2}))),
            "Partition(classes=(frozenset({0, 1}), frozenset({2})))",
        ),
        "EquivalenceVerdict": (
            verify_equivalence(l11.spec, "th31"),
            "EquivalenceVerdict(predicted=True, observed=True, counterwitness=None, "
            f"report={PASSING_AXIOMS}, hypotheses={HYPOTHESES})",
        ),
        "Counterexample": (
            Counterexample(l13.spec, "th31", "join-pairs", report, axioms, "generated:0:7"),
            f"Counterexample(spec={l13.spec!r}, theorem='th31', dropped_clause='join-pairs', "
            f"hypothesis_report={HYPOTHESES}, axiom_report={FAILING_AXIOMS}, "
            "source='generated:0:7')",
        ),
        "Erratum": (l12.errata[0], ERRATUM),
        "CorpusEntry": (
            l12,
            f"CorpusEntry(id='L12', lattice={l12.lattice!r}, theorem='th31', spec={l12.spec!r}, "
            f"printed={l12.printed!r}, stored={l12.stored!r}, constructed_key='U1', "
            f"expected_uninorm=True, errata=({ERRATUM},), cited_witness=None)",
        ),
        "EntryReplay": (replay, ENTRY_REPLAY),
        "ReplayReport": (corpus.ReplayReport((replay,)), f"ReplayReport(entries=({ENTRY_REPLAY},))"),
    }


NAMES = ("Clause", "HypothesisReport", "TheoremProfile", "AxiomReport", "Partition",
         "EquivalenceVerdict", "Counterexample", "Erratum", "CorpusEntry", "EntryReplay",
         "ReplayReport")


@pytest.mark.parametrize("name", NAMES)
def test_repr_is_the_dataclass_text(entries, name):
    record, text = records(entries)[name]
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", NAMES)
def test_a_record_is_an_immutable_value(entries, name):
    record, _ = records(entries)[name]
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1

    twin = type(record)(**record._asdict())
    assert twin is not record
    assert twin == record
    assert hash(twin) == hash(record)

    last = record._fields[-1]
    changed = record._replace(**{last: "changed"})
    assert type(changed) is type(record)
    assert getattr(changed, last) == "changed"
    assert changed != record
    assert getattr(record, last) != "changed"


def test_only_three_dataclasses_remain():
    classes = {}
    for info in pkgutil.iter_modules(latnorm.__path__, "latnorm."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                classes[name] = value
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == {
        "BoundedLattice", "ConstructionSpec", "GenConfig"}
    for name in NAMES:
        assert issubclass(classes[name], tuple) and hasattr(classes[name], "_fields"), name
