import pytest

from latnorm import corpus
from latnorm.optable import in_class_ub, is_uninorm


def test_unknown_id():
    with pytest.raises(corpus.UnknownId):
        corpus.load("L99")


def test_load_specific_cells(entries):
    l11 = entries["L11"]
    lat = l11.lattice
    assert l11.tables["Ustar"].value(lat.index("k"), lat.index("c")) == lat.index("c")

    assert entries["L13"].expected_uninorm is False

    l21 = entries["L21"]
    lat = l21.lattice
    assert l21.tables["U2"].value(lat.index("q"), lat.index("c")) == lat.index("1")


def test_constructed_keys(entries):
    assert entries["L11"].constructed_key == "U1"
    assert entries["L12"].constructed_key == "U1"
    assert entries["L13"].constructed_key == "U1"
    assert entries["L21"].constructed_key == "U2"
    assert entries["L22"].constructed_key == "U2"


def test_inner_tables_are_bounded_below_class(entries):
    for entry in entries.values():
        assert in_class_ub(entry.spec.inner, entry.spec.neutral)


def test_replay_all_reproduces():
    report = corpus.replay_all()
    assert report.ok
    assert len(report.entries) == 5
    for entry in report.entries:
        assert entry.ok, entry


def test_l11_diff_empty():
    entry = corpus.load("L11")
    rep = corpus.replay_entry(entry)
    assert rep.diff_cells == ()


def test_l13_diff_is_exactly_the_ledger(l13):
    rep = corpus.replay_entry(l13)
    lat = l13.lattice
    names = {(lat.name(a), lat.name(b)) for a, b in rep.diff_cells}
    assert names == {(e.row, e.col) for e in l13.errata}
    assert ("q", "d") in names
    # the repaired cell: printed top, formula value d
    erratum = next(e for e in l13.errata if (e.row, e.col) == ("q", "d"))
    assert erratum.printed == "1" and erratum.formula == "d" and erratum.repaired


def test_l12_l21_single_erratum(entries):
    for entry_id in ("L12", "L21"):
        entry = entries[entry_id]
        assert len(entry.errata) == 1
        erratum = entry.errata[0]
        assert (erratum.row, erratum.col) == ("e", "f")
        assert erratum.printed == "q" and erratum.formula == "f" and erratum.repaired
        rep = corpus.replay_entry(entry)
        lat = entry.lattice
        assert rep.diff_cells == ((lat.index("e"), lat.index("f")),)


def test_stored_tables_commutative_after_correction(entries):
    for entry in entries.values():
        for a in entry.stored.carrier:
            for b in entry.stored.carrier:
                assert entry.stored.value(a, b) == entry.stored.value(b, a)


def test_every_asymmetric_printed_pair_is_in_ledger(entries):
    # each commutativity-breaking pair has one wrong member; that member is
    # the documented erratum (its mirror already matches the formula)
    for entry in entries.values():
        lat = entry.lattice
        documented = {(e.row, e.col) for e in entry.errata}
        for a in entry.printed.carrier:
            for b in entry.printed.carrier:
                if entry.printed.value(a, b) != entry.printed.value(b, a):
                    pair = (lat.name(a), lat.name(b))
                    mirror = (lat.name(b), lat.name(a))
                    assert pair in documented or mirror in documented


def test_errata_have_justifications(entries):
    for entry in entries.values():
        for erratum in entry.errata:
            assert erratum.note


def test_expected_verdicts(entries):
    for entry in entries.values():
        report = is_uninorm(entry.stored, entry.spec.neutral)
        assert report.ok == entry.expected_uninorm


def test_cited_witnesses(entries):
    for entry_id, cited in (("L13", ("s", "t", "m")), ("L22", ("s", "m", "t"))):
        entry = entries[entry_id]
        lat = entry.lattice
        report = is_uninorm(entry.stored, entry.spec.neutral)
        a, b, c, ua, ub, side = report.monotone
        assert (lat.name(a), lat.name(b), lat.name(c)) == cited
        assert ua == lat.top and lat.name(ub) == "d"
        # cited cells hold by commutativity in both orientations
        assert entry.stored.value(a, c) == entry.stored.value(c, a) == ua
        assert entry.stored.value(b, c) == entry.stored.value(c, b) == ub


def test_anchor_below_neutral_in_l11(l11):
    lat = l11.lattice
    q, e = lat.index("q"), lat.index("e")
    assert q != e and lat.leq(q, e)
    assert lat.bottom != q and lat.leq(lat.bottom, q)


def _replays_with(entry, errata) -> bool:
    return corpus.replay_entry(entry._replace(errata=tuple(errata))).diff_matches_errata


def _other_name(lat, name):
    return next(other for other in lat.names if other != name)


def test_the_shipped_ledgers_match(entries):
    for entry in entries.values():
        assert _replays_with(entry, entry.errata), entry.id


def test_a_dropped_erratum_fails_the_replay(entries):
    dropped = 0
    for entry in entries.values():
        for i in range(len(entry.errata)):
            assert not _replays_with(entry, entry.errata[:i] + entry.errata[i + 1:]), (entry.id, i)
            dropped += 1
    assert dropped == 13


def test_an_erratum_where_table_and_print_agree_fails_the_replay(entries):
    for entry in entries.values():
        lat, printed = entry.lattice, entry.printed
        diff = set(corpus.replay_entry(entry).diff_cells)
        r, c = next((a, b) for a in printed.carrier for b in printed.carrier if (a, b) not in diff)
        value = lat.name(printed.value(r, c))
        extra = corpus.Erratum(row=lat.name(r), col=lat.name(c), printed=value, formula=value,
                               repaired=False, note="")
        assert not _replays_with(entry, entry.errata + (extra,)), entry.id


@pytest.mark.parametrize("field", ["formula", "printed"])
def test_a_wrong_erratum_value_fails_the_replay(entries, field):
    for entry in entries.values():
        for i, err in enumerate(entry.errata):
            wrong = err._replace(**{field: _other_name(entry.lattice, getattr(err, field))})
            errata = entry.errata[:i] + (wrong,) + entry.errata[i + 1:]
            assert not _replays_with(entry, errata), (entry.id, i)


def test_an_erratum_listed_twice_fails_the_replay(entries):
    for entry in entries.values():
        for err in entry.errata:
            assert not _replays_with(entry, entry.errata + (err,)), entry.id
