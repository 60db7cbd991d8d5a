import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmult import oracles, spectral
from tsmult.convolution import irrationality_module, ts_graded
from tsmult.errors import ResourceLimit
from tsmult.filtration import graded_at
from tsmult.germs import Germ, alpha_tilde, diagonal_microlocal_chain, milnor_number, ts_sum
from tsmult.spectral import (EigenTable, Spectrum, consistency_check,
                             fold_spectrum, one_var_eigentable, phi_convolve,
                             spectrum_convolve, spectrum_of)
from tsmult.weights import diagonal_model, graded_exponents, quotient_exponents

from bruteforce import (bf_fold, bf_spectral_count, bf_spectral_graded_dim,
                        bf_spectrum)


def test_one_var_eigentable():
    table = one_var_eigentable(3)
    assert table.entries == ((F(-2, 3), 1), (F(-1, 3), 1))
    assert table.total == 2
    assert one_var_eigentable(2).entries == ((F(-1, 2), 1),)


def test_eigentable_validation():
    with pytest.raises(ValueError):
        EigenTable(((F(-3, 2), 1),))      # outside (-1, 0]
    with pytest.raises(ValueError):
        EigenTable(((F(1, 2), 1),))
    with pytest.raises(ValueError):
        EigenTable(((F(-1, 2), 0),))
    assert EigenTable(((F(0), 2),)).total == 2


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(1, ((F(1), 1),))          # not inside (0, dim)
    with pytest.raises(ValueError):
        Spectrum(2, ((F(2), 1),))
    assert Spectrum(2, ((F(1), 3),)).total == 3


def test_hand_built_tables_equal_engine_tables():
    assert EigenTable(((F(-1, 6), 1), (F(-5, 6), 1))) == \
        phi_convolve(one_var_eigentable(2), one_var_eigentable(3))
    assert Spectrum(2, [(F(7, 6), 1), (F(5, 6), 1)]) == spectrum_of(Germ((2, 3)))
    assert Spectrum(3, [(F(3, 2), 1)]) == spectrum_of(Germ((2, 2, 2)))
    assert Spectrum(2, [(F(3, 2), 1)]) != spectrum_of(Germ((2, 2, 2)))  # dims differ
    # (2,2): -1/2 - 1/2 folds to 0, stored over the least denominator 1
    table = phi_convolve(one_var_eigentable(2), one_var_eigentable(2))
    assert table == EigenTable([(0, 1)]) == fold_spectrum(spectrum_of(Germ((2, 2))))
    assert (table.denom, table.keys.tolist(), table.counts.tolist()) == (1, [0], [1])


def test_value_strings_print_as_fractions():
    tables = [spectrum_of(Germ(ms)) for ms in [(2,), (2, 3), (3, 3, 3), (2, 2, 4, 6)]]
    tables += [fold_spectrum(t) for t in tables]  # keys at 0 and below
    tables += [EigenTable(()), Spectrum(3, [(2, 1), (F(4, 6), 2)])]
    for table in tables:
        want = [str(v) for v, _ in table.entries]
        assert table.value_strings() == want
        assert [e[table._name] for e in table.to_json()["entries"]] == want


def test_hand_built_tables_are_sorted_multisets():
    table = EigenTable([(F(-1, 4), 1), (F(-3, 4), 2), (F(-1, 4), 3)])
    assert table.entries == ((F(-3, 4), 2), (F(-1, 4), 4))
    assert (table.denom, table.keys.tolist(), table.counts.tolist()) == (4, [-3, -1], [2, 4])
    assert table.total == 6
    spectrum = Spectrum(2, [(F(3, 2), 1), (F(1, 2), 1)])
    assert spectrum.entries == ((F(1, 2), 1), (F(3, 2), 1))
    with pytest.raises(ValueError):
        EigenTable([(F(-1, 4), 0), (F(-1, 4), 1)])   # checked before merging


def test_empty_tables():
    assert EigenTable(()).total == 0 and EigenTable(()).entries == ()
    assert EigenTable(()) == EigenTable([])
    assert Spectrum(2, ()).total == 0
    assert phi_convolve(EigenTable(()), one_var_eigentable(3)) == EigenTable(())
    assert fold_spectrum(Spectrum(2, ())) == EigenTable(())


def test_tables_are_immutable():
    table = one_var_eigentable(5)
    with pytest.raises(AttributeError):
        table.denom = 7
    with pytest.raises(ValueError):
        table.keys[0] = 0


def test_phi_convolve_cusp_golden():
    table = phi_convolve(one_var_eigentable(2), one_var_eigentable(3))
    assert table.entries == ((F(-5, 6), 1), (F(-1, 6), 1))
    # the -1/2, -2/3 pair sums below -1, so it lands in the folded branch
    assert F(-1, 2) + F(-2, 3) + 1 == F(-1, 6)


def test_phi_convolve_totals_multiply():
    for m1, m2 in itertools.product(range(2, 8), repeat=2):
        t = phi_convolve(one_var_eigentable(m1), one_var_eigentable(m2))
        assert t.total == (m1 - 1) * (m2 - 1)


def test_spectrum_of_goldens():
    assert spectrum_of(Germ((2, 3))).entries == ((F(5, 6), 1), (F(7, 6), 1))
    assert spectrum_of(Germ((2, 2, 2))).entries == ((F(3, 2), 1),)
    s335 = spectrum_of(Germ((3, 3, 3)))
    assert s335.total == 8
    assert s335.entries[0][0] == F(1)
    assert spectrum_of(Germ((2, 3, 5))).entries[0][0] == F(31, 30)


def test_spectrum_matches_bruteforce():
    for ms in [(2,), (5,), (2, 3), (4, 4), (2, 3, 4), (3, 3, 3)]:
        spectrum = spectrum_of(Germ(ms))
        assert spectrum.as_dict() == bf_spectrum(ms)


def test_spectrum_symmetry_and_total():
    for ms in [(2, 3), (3, 4, 5), (2, 2, 3, 3)]:
        germ = Germ(ms)
        spectrum = spectrum_of(germ)
        assert spectrum.total == milnor_number(germ)
        table = spectrum.as_dict()
        assert all(table[len(ms) - s] == mult for s, mult in table.items())


def test_spectrum_convolve_additive():
    g1 = Germ((2, 3), var_names=("x1", "x2"))
    g2 = Germ((4,), var_names=("y",))
    joined = spectrum_convolve(spectrum_of(g1), spectrum_of(g2))
    assert joined == spectrum_of(ts_sum(g1, g2))
    assert joined.dim == 3
    # no folding happens on the spectrum side
    assert max(v for v, _ in joined.entries) > 1


def test_fold_spectrum():
    folded = fold_spectrum(spectrum_of(Germ((2, 3))))
    assert folded.entries == ((F(-5, 6), 1), (F(-1, 6), 1))
    # integer spectrum values (1 and 2 here) both land at 0
    folded = fold_spectrum(spectrum_of(Germ((3, 3, 3))))
    assert (F(0), 2) in folded.entries


def test_consistency_check_family():
    for d in (1, 2, 3):
        for ms in itertools.product(range(2, 6), repeat=d):
            report = consistency_check(Germ(ms))
            assert report.ok, (ms, report.to_json())


def test_consistency_report_shape():
    report = consistency_check(Germ((2, 3)))
    doc = report.to_json()
    assert doc["enumeration_match"] and report.enumeration_match
    assert doc["tables_match"] and doc["total_ok"] and doc["symmetric"]
    assert doc["milnor"] == 2
    assert doc["min_value"] == "5/6" and doc["alpha_tilde"] == "5/6"


def test_spectrum_equals_first_block_graded_dims():
    # spectrum multiplicities are the graded dimensions of the microlocal
    # chain contributed by exponents below the first period in every variable
    for ms in [(2, 3), (3, 3), (2, 3, 4)]:
        d = len(ms)
        model = diagonal_model(ms, cap=F(d + 1))
        spectrum = spectrum_of(Germ(ms))
        for value, mult in spectrum.entries:
            block = [e for e in graded_exponents(model, value)
                     if all(k <= m - 2 for k, m in zip(e, ms))]
            assert len(block) == mult, (ms, value)


def _spectral_count_cases(count=300, seed=1977):
    """(ms, alpha) with d = 1..4, m <= 9 and alpha < 3 on (1/2D)Z, so half
    of the alphas are off the lattice of weights."""
    rng = random.Random(seed)
    for _ in range(count):
        ms = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 4)))
        den = 2 * math.lcm(*ms)
        yield ms, F(rng.randrange(1, 3 * den), den)


def test_dimensions_match_the_spectral_count():
    # every graded and quotient size against Sp(t) / (1 - t)^d, which
    # reads no weight model and enumerates no box
    for ms, alpha in _spectral_count_cases():
        graded = bf_spectral_graded_dim(ms, alpha)
        chain = diagonal_microlocal_chain(Germ(ms), window=alpha + F(1, 2))
        assert graded_at(chain, alpha).dim == graded, (ms, alpha)
        assert len(graded_exponents(chain.model, alpha)) == graded, (ms, alpha)
        for strict in (False, True):
            assert len(quotient_exponents(chain.model, alpha, strict)) == \
                bf_spectral_count(ms, alpha, inclusive=strict), (ms, alpha, strict)
        if len(ms) > 1:
            cut = len(ms) // 2
            c1 = diagonal_microlocal_chain(Germ(ms[:cut]), window=alpha + F(1, 2))
            c2 = diagonal_microlocal_chain(Germ(ms[cut:]), window=alpha + F(1, 2))
            assert sum(b.dim for b in ts_graded(c1, c2, alpha)) == graded, (ms, alpha)
            assert irrationality_module(Germ(ms)).dim == \
                bf_spectral_count(ms, 1, inclusive=True), ms


def test_spectral_count_past_box_enumeration():
    # boxes of 80^3 and ~10^6 candidates; the models are cut just above alpha
    ms = (80, 80, 80)
    model = diagonal_model(ms, cap=F(81, 80))
    assert len(graded_exponents(model, F(1))) == bf_spectral_graded_dim(ms, 1) == 3081
    assert len(quotient_exponents(model, F(1), strict=True)) == \
        bf_spectral_count(ms, 1, inclusive=True) == 82160
    assert len(quotient_exponents(model, F(1), strict=False)) == \
        bf_spectral_count(ms, 1, inclusive=False)
    c1 = diagonal_microlocal_chain(Germ((80,)), window=F(3, 2))
    c2 = diagonal_microlocal_chain(Germ((80, 80)), window=F(3, 2))
    assert sum(b.dim for b in ts_graded(c1, c2, F(1))) == 3081
    ms, alpha = (30, 31, 32, 33), F(3, 2)
    model = diagonal_model(ms, cap=alpha + F(1, math.lcm(*ms)))
    assert len(quotient_exponents(model, alpha, strict=True)) == \
        bf_spectral_count(ms, alpha, inclusive=True) == 172080


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 9), min_size=1, max_size=4))
def test_engine_matches_bruteforce(ms):
    spectrum = spectrum_of(Germ(tuple(ms)))
    brute = bf_spectrum(ms)
    assert spectrum.as_dict() == brute
    assert [v for v, _ in spectrum.entries] == sorted(brute)
    folded = bf_fold(brute)
    assert fold_spectrum(spectrum).as_dict() == folded
    table = functools.reduce(phi_convolve, [one_var_eigentable(m) for m in ms])
    assert table.as_dict() == folded
    assert [a for a, _ in table.entries] == sorted(folded)


def test_spectrum_convolve_associative():
    parts = [spectrum_of(Germ(ms)) for ms in [(2, 5), (3,), (4, 7)]]
    left = spectrum_convolve(spectrum_convolve(parts[0], parts[1]), parts[2])
    right = spectrum_convolve(parts[0], spectrum_convolve(parts[1], parts[2]))
    assert left == right == spectrum_of(Germ((2, 5, 3, 4, 7)))


def test_thousand_power_germs():
    spectrum = spectrum_of(Germ((1000,) * 3))
    assert spectrum.total == 999 ** 3
    assert len(spectrum.entries) == 2995
    table = functools.reduce(phi_convolve, [one_var_eigentable(1000)] * 4)
    assert table.total == 999 ** 4


def test_int64_overflow_refused():
    # mu = 2^64 interior tuples: counts would wrap in int64
    with pytest.raises(ResourceLimit, match="64-bit"):
        spectrum_of(Germ((3,) * 64))
    # keys up to 2 * 2^62 over one common denominator
    big = EigenTable(((F(-1, 1 << 62), 1),))
    with pytest.raises(ResourceLimit, match="64-bit"):
        phi_convolve(big, big)
    # a hand-built table whose denominator int64 cannot hold
    with pytest.raises(ResourceLimit, match="64-bit"):
        EigenTable(((F(-1, 1 << 63), 1),))
    with pytest.raises(ResourceLimit, match="64-bit"):
        Spectrum(2, ((F(1), 1 << 63),))


@pytest.mark.parametrize("modulus", [0, 1 << 40])
def test_pair_sum_peak_within_admitted_bytes(monkeypatch, modulus):
    # admission must never undercount: a pair sum of 1.2M distinct sums,
    # given in descending order so the sort moves every pair, peaks within
    # the bytes it admitted
    admitted = []
    monkeypatch.setattr(spectral, "_admit", lambda nbytes, *what: admitted.append(nbytes))
    keys_a = np.arange(1000, dtype=np.int64)[::-1] * 1200
    keys_b = np.arange(1200, dtype=np.int64)[::-1]
    counts_a, counts_b = np.ones(1000, dtype=np.int64), np.full(1200, 2, dtype=np.int64)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        keys, counts = spectral._pair_sum(keys_a, counts_a, keys_b, counts_b, "probe",
                                          modulus=modulus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(keys) == 1_200_000 and keys[0] == 0 and counts.sum() == 2_400_000
    assert admitted == [33 * 1_200_000]
    assert peak <= admitted[0], peak / 1_200_000


def test_enumeration_mismatch_fails_the_check(monkeypatch):
    # a well-formed wrong multiset: the value 1/2, numerator 3 over lcm(2, 3)
    monkeypatch.setattr(oracles, "enumerated_spectrum", lambda ms: Counter({3: 1}))
    report = consistency_check(Germ((2, 3)))
    assert not report.enumeration_match and not report.ok
    assert report.tables_match and report.total_ok and report.symmetric and report.min_ok


_CHECKS = ("enumeration_match", "tables_match", "total_ok", "symmetric", "min_ok")


def _fraction_fields(ms, entries, enumerated, table, mu, a_tilde):
    """The report's fields from Fraction dicts: the spectrum's entries, the
    enumerated spectrum and the eigentable it is checked against."""
    folded = bf_fold(entries)
    low = min(entries)
    return {"exponents": list(ms), "enumeration_match": entries == enumerated,
            "tables_match": folded == table, "total": sum(entries.values()),
            "milnor": mu, "total_ok": sum(entries.values()) == mu == sum(folded.values()),
            "symmetric": all(entries.get(len(ms) - s) == c for s, c in entries.items()),
            "min_value": str(low), "alpha_tilde": str(a_tilde), "min_ok": low == a_tilde}


def _seeded_germs(count, seed, max_mu=4096):
    rng = random.Random(seed)
    while count:
        ms = tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 4)))
        if math.prod(m - 1 for m in ms) <= max_mu:
            count -= 1
            yield ms


def test_integer_report_matches_fraction_route():
    for ms in _seeded_germs(30, seed=2414):
        germ = Germ(ms)
        report = consistency_check(germ)
        entries, brute = spectrum_of(germ).as_dict(), bf_spectrum(ms)
        want = _fraction_fields(ms, entries, brute, bf_fold(brute),
                                math.prod(m - 1 for m in ms), sum(F(1, m) for m in ms))
        doc = report.to_json()
        assert {key: doc[key] for key in want} == want, ms
        assert report.min_value == min(brute) and type(report.min_value) is F
        assert report.folded_table.as_dict() == report.convolved_table.as_dict() == bf_fold(brute)
        assert report.ok and doc["ok"], ms


def _rigged_report(monkeypatch, ms, crafted, rig):
    """consistency_check(Germ(ms)) with spectrum_of returning crafted and the
    routes named in rig made to agree with it; the others stay real."""
    entries = crafted.as_dict()
    denom = math.lcm(*ms)
    fakes = {
        "enumerated_spectrum": lambda ms: Counter({int(v * denom): c for v, c in entries.items()}),
        "_eigentable_of": lambda ms: EigenTable(bf_fold(entries).items()),
        "milnor_number": lambda germ: crafted.total,
        "alpha_tilde": lambda germ: min(entries),
    }
    monkeypatch.setattr(spectral, "spectrum_of", lambda germ: crafted)
    for name in rig:  # consistency_check reads the enumeration from the oracles
        home = oracles if name == "enumerated_spectrum" else spectral
        monkeypatch.setattr(home, name, fakes[name])
    germ = Germ(ms)
    real_table = bf_fold(bf_spectrum(ms))
    want = _fraction_fields(
        ms, entries,
        entries if "enumerated_spectrum" in rig else bf_spectrum(ms),
        bf_fold(entries) if "_eigentable_of" in rig else real_table,
        crafted.total if "milnor_number" in rig else milnor_number(germ),
        min(entries) if "alpha_tilde" in rig else alpha_tilde(germ))
    return consistency_check(germ), want


@pytest.mark.parametrize("ms, crafted, rig, fails", [
    ((3, 3, 3), Spectrum(3, [(1, 1), (F(4, 3), 3), (2, 1), (F(8, 3), 3)]),
     {"enumerated_spectrum"}, ["symmetric"]),
    # the values are symmetric, their counts are not
    ((3, 3, 3, 3), Spectrum(4, [(F(4, 3), 2), (F(5, 3), 4), (2, 6), (F(7, 3), 3), (F(8, 3), 1)]),
     {"enumerated_spectrum"}, ["symmetric"]),
    ((3, 3, 3), Spectrum(3, [(F(1, 3), 3), (1, 1), (2, 1), (F(8, 3), 3)]),
     {"enumerated_spectrum"}, ["min_ok"]),
    ((3, 3), Spectrum(2, [(F(2, 3), 1), (1, 3), (F(4, 3), 1)]),
     {"enumerated_spectrum", "_eigentable_of"}, ["total_ok"]),
    ((2, 3), Spectrum(2, [(F(5, 7), 1), (F(9, 7), 1)]),
     {"_eigentable_of", "alpha_tilde"}, ["enumeration_match"]),
    # 5/4 and 7/4 have the numerators of 5/6 and 7/6; over a denominator
    # that does not divide lcm(ms) they cannot also be symmetric
    ((2, 3), Spectrum(2, [(F(5, 4), 1), (F(7, 4), 1)]),
     {"_eigentable_of", "alpha_tilde"}, ["enumeration_match", "symmetric"]),
], ids=["asymmetric", "asymmetric counts", "wrong minimum", "count off by one",
        "denominator outside lcm", "numerators over the wrong denominator"])
def test_crafted_spectrum_flips_only_its_own_check(monkeypatch, ms, crafted, rig, fails):
    report, want = _rigged_report(monkeypatch, ms, crafted, rig)
    doc = report.to_json()
    assert {key: doc[key] for key in want} == want
    assert [name for name in _CHECKS if not doc[name]] == fails
    assert not report.ok and not doc["ok"]
