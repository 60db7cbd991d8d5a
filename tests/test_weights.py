import copy
import itertools
import pickle
import random
import re
import tracemalloc
from fractions import Fraction as F
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmult import weights
from tsmult.errors import ResourceLimit, WindowExceeded
from tsmult.filtration import JumpChain, jumpset_of
from tsmult.germs import Germ, alpha_tilde, diagonal_microlocal_chain, one_var_weight
from tsmult.monomial import MonomialIdeal
from tsmult.oracles import _canonical, box_model
from tsmult.weights import (_one_var_scaled, convolve, diagonal_model, generators_at,
                            graded_exponents, rescaled)

from bruteforce import (bf_diagonal_gens, bf_micro_weight, bf_permuted_atoms,
                        bf_usual_weight, bf_weight_levels)


def _gens(model, alpha, strict):
    return list(generators_at(model, alpha, strict=strict).gens)


def _identical(a, b):
    """Same atoms in the same row order, same numerators, same denominator and cap."""
    return (a.dim == b.dim and a.denom == b.denom and a.cap == b.cap
            and np.array_equal(a.exps, b.exps) and np.array_equal(a.weight, b.weight)
            and np.array_equal(a.drop, b.drop))


def test_one_var_tables_match_bruteforce():
    for m in range(2, 61):
        for cap in (F(1, 2 * m), F(1, m), F(1, 3), F(1), F(3, 2), F(3), F(7, 2)):
            for usual, weight in ((False, bf_micro_weight), (True, bf_usual_weight)):
                want = [0]
                while weight(m, len(want)) < cap:
                    want.append(len(want))
                if weight(m, 0) >= cap:
                    want = [0]  # z^0 is always kept
                table = _one_var_scaled(m, cap, m, usual)
                assert table.tolist() == [weight(m, k) * m for k in want], (m, cap, usual)


def test_tables_stop_where_their_pairing_reads(monkeypatch):
    # variable j's table holds the z^k lighter than the cap less the other
    # variables' z^0 weight, and z^0 always, counted from germs.one_var_weight
    lengths = []
    build = weights._one_var_scaled

    def recorded(*args):
        table = build(*args)
        lengths.append(len(table))
        return table

    monkeypatch.setattr(weights, "_one_var_scaled", recorded)
    rng = random.Random(27)
    for _ in range(300):
        ms = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 4)))
        q = rng.randint(1, 8)
        cap = F(rng.randint(1, 3 * q), q)
        usual = rng.random() < 0.5
        lengths.clear()
        diagonal_model(ms, cap, usual)
        want = []
        for j, m in enumerate(ms):
            room = cap - sum(F(1, mi) for i, mi in enumerate(ms) if i != j)
            k = 1
            while one_var_weight(m, k, usual) < room:
                k += 1
            want.append(k)
        assert lengths == want, (ms, cap, usual)


_BOX_CAPS = (F(1, 3), F(1), F(3, 2), F(2), F(3), F(4))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_diagonal_model_equals_box_model(d):
    # every ordered tuple up to three variables; sorted tuples for four
    shapes = (itertools.product(range(2, 8), repeat=d) if d < 4
              else itertools.combinations_with_replacement(range(2, 8), d))
    for ms in shapes:
        for cap in _BOX_CAPS:
            for usual in (False, True):
                assert _identical(diagonal_model(ms, cap, usual),
                                  box_model(ms, cap, usual)), (ms, cap, usual)


def test_fold_start_matches_box_model_on_short_tables():
    # caps at, between and just past the first weights z^0 and z^1, so the
    # one-variable tables are cut to length 1 or 2, or the whole model to
    # row 0; with three variables the first pairing is below cap - rest
    # with rest > 0, and these caps reach that intermediate cap too
    shapes = ([(m,) for m in range(2, 12)] + list(itertools.product(range(2, 9), repeat=2))
              + list(itertools.product(range(2, 6), repeat=3)))
    for ms in shapes:
        zero = sum(F(1, m) for m in ms)
        caps = {F(k, 2 * m) for m in ms for k in range(1, 6)} | {zero, zero + F(1, 100)}
        for cap in caps:
            for usual in (False, True):
                assert _identical(diagonal_model(ms, cap, usual),
                                  box_model(ms, cap, usual)), (ms, cap, usual)


@st.composite
def _convolve_cases(draw):
    ms1 = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=2)))
    # one right variable takes the path with no sort, two or more the sorted one
    ms2 = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=4 - len(ms1))))
    denom = lcm(*ms1, *ms2)
    zero = sum(F(1, m) for m in ms1 + ms2)  # the zero exponent's weight
    kind = draw(st.sampled_from(["on", "off", "forced"]))
    if kind == "on":
        cap = F(draw(st.integers(1, 3 * denom)), denom)
    elif kind == "off":
        cap = F(2 * draw(st.integers(0, 3 * denom - 1)) + 1, 2 * denom)
    else:  # at or below the zero exponent's weight: only row 0, kept by force
        cap = zero * F(draw(st.integers(1, 4)), 4)
    factor_cap = cap + F(draw(st.integers(0, 2)), 2)
    return ms1, ms2, cap, factor_cap, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_convolve_cases())
def test_convolve_matches_box_model(case):
    ms1, ms2, cap, factor_cap, usual = case
    joined = convolve(diagonal_model(ms1, factor_cap, usual),
                      diagonal_model(ms2, factor_cap, usual), cap)
    assert joined == box_model(ms1 + ms2, cap, usual)


def test_diagonal_model_needs_exponents_from_two():
    for ms in [(), (1,), (2, 1)]:
        with pytest.raises(ValueError, match="one or more exponents, all >= 2"):
            diagonal_model(ms, F(2))


def test_one_var_atom_weights_match_recursion():
    for m in range(2, 10):
        model = diagonal_model((m,), cap=F(4))
        for row, scaled in zip(model.exps, model.weight):
            assert F(int(scaled), model.denom) == bf_micro_weight(m, int(row[0]))


def test_one_var_usual_atom_weights():
    for m in range(2, 10):
        model = diagonal_model((m,), cap=F(2), usual=True)
        for row, scaled in zip(model.exps, model.weight):
            assert F(int(scaled), model.denom) == bf_usual_weight(m, int(row[0]))


@pytest.mark.parametrize("ms", [(2,), (5,), (2, 3), (3, 3), (2, 5), (4, 7),
                                (2, 2, 2), (2, 3, 5), (3, 4, 5)])
def test_generators_match_bruteforce_microlocal(ms):
    model = diagonal_model(ms, cap=F(3))
    denoms = {m for m in ms}
    grid = sorted({F(n, d) for d in denoms for n in range(0, 2 * d)})
    for alpha in grid:
        for strict in (False, True):
            assert _gens(model, alpha, strict) == bf_diagonal_gens(
                ms, alpha, strict=strict), (ms, alpha, strict)


@pytest.mark.parametrize("ms", [(2,), (4,), (2, 3), (3, 5), (2, 2, 4)])
def test_generators_match_bruteforce_usual(ms):
    model = diagonal_model(ms, cap=F(2), usual=True)
    den = 1
    for m in ms:
        den *= m
    for n in range(0, den):
        alpha = F(n, den)
        for strict in (False, True):
            assert _gens(model, alpha, strict) == bf_diagonal_gens(
                ms, alpha, strict=strict, usual=True), (ms, alpha, strict)


@st.composite
def _headroom_cases(draw):
    ms = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    q = draw(st.integers(1, 2 * lcm(*ms)))
    return ms, F(draw(st.integers(0, 2 * q)), q), draw(st.booleans()), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_headroom_cases())
def test_least_cap_is_sufficient_and_tight(case):
    # at the least cap the headroom rule allows, the generators are the
    # brute-force ones; 1/D below it, generators_at refuses the threshold
    ms, alpha, strict, usual = case
    denom = lcm(*ms)
    cap = weights._least_cap(alpha, denom, strict)
    assert _gens(box_model(ms, cap, usual), alpha, strict) == bf_diagonal_gens(
        ms, alpha, strict=strict, usual=usual)
    with pytest.raises(WindowExceeded, match="too close to the model cap"):
        generators_at(box_model(ms, cap - F(1, denom), usual), alpha, strict)


def test_zero_exponent_kept_when_weight_exceeds_cap():
    # total weight of the constant monomial is 3, beyond the cap: it must
    # still act as the sole generator at every threshold below its weight
    ms = (2,) * 6
    model = diagonal_model(ms, cap=F(3))
    assert _gens(model, F(1, 2), True) == [(0,) * 6]
    assert _gens(model, F(2), False) == [(0,) * 6]


def test_threshold_guard():
    model = diagonal_model((2, 3), cap=F(2))
    with pytest.raises(WindowExceeded):
        generators_at(model, F(2), strict=False)
    with pytest.raises(WindowExceeded):
        generators_at(model, F(1), strict=True)  # needs levels beyond 1 + 1
    # inside the guard everything works
    assert generators_at(model, F(5, 6), strict=True).gens == ((0, 1), (1, 0))


def test_convolve_equals_direct_pairs():
    for m1, m2 in itertools.product(range(2, 7), repeat=2):
        a = diagonal_model((m1,), cap=F(4))
        b = diagonal_model((m2,), cap=F(4))
        joined = convolve(a, b)
        direct = box_model((m1, m2), cap=F(4))
        assert joined == direct, (m1, m2)


def test_convolve_triple_associative():
    parts = [diagonal_model((m,), cap=F(3)) for m in (2, 3, 4)]
    left = convolve(convolve(parts[0], parts[1]), parts[2])
    right = convolve(parts[0], convolve(parts[1], parts[2]))
    direct = box_model((2, 3, 4), cap=F(3))
    assert left == direct
    assert right == direct


def test_convolve_output_is_lex_sorted():
    factors = [box_model(ms, cap=F(3)) for ms in [(2,), (5,), (3, 2), (4, 3), (2, 2, 3)]]
    for a, b in itertools.product(factors, repeat=2):
        for cap in (None, F(2), F(5, 2)):
            out = convolve(a, b, cap)
            resorted = _canonical(out.dim, out.denom, out.cap, out.exps, out.weight, out.drop)
            assert _identical(out, resorted)


def test_table_byte_limit_refuses_before_building(monkeypatch):
    # a pairing is admitted at 8 * (dim + 4) bytes for each pair it makes
    # and each row it reads; (5, 5) pairs two one-variable models
    small = diagonal_model((5, 5), cap=F(2))
    factor = diagonal_model((5,), cap=F(2))
    monkeypatch.setattr(weights, "MAX_TABLE_BYTES",
                        8 * 6 * (len(small.weight) + 2 * len(factor.weight)))
    assert _identical(diagonal_model((5, 5), cap=F(2)), small)
    bigger = box_model((5, 5), cap=F(11, 5))
    with pytest.raises(ResourceLimit, match=rf"has {len(bigger.weight)} atoms: "):
        diagonal_model((5, 5), cap=F(11, 5))
    # a convolution is admitted on its output and the atoms of its factors
    quintic = diagonal_model((5,), cap=F(4))
    n = len(quintic.weight)
    rows = len(box_model((5, 5), cap=F(4)).weight)
    with pytest.raises(ResourceLimit, match=rf"convolution of {n} x {n} atoms below 4 "
                                            rf"has {rows} atoms: {8 * 6 * (rows + 2 * n)} bytes"):
        convolve(quintic, quintic)
    pair = box_model((5, 5), cap=F(4))
    # the rows a pairing reads are admitted before it counts its pairs
    reads = 8 * 7 * (n + len(pair.weight))
    with pytest.raises(ResourceLimit, match=rf"below 4 pairs {n} x {len(pair.weight)} atoms: "
                                            rf"{reads} bytes"):
        convolve(quintic, pair)
    monkeypatch.setattr(weights, "MAX_TABLE_BYTES", reads)
    rows = len(box_model((5, 5, 5), cap=F(4)).weight)
    with pytest.raises(ResourceLimit, match=rf"convolution of {n} x {len(pair.weight)} atoms "
                                            rf"below 4 has {rows} atoms: "
                                            rf"{8 * 7 * (rows + n + len(pair.weight))} bytes"):
        convolve(quintic, pair)
    with pytest.raises(ResourceLimit, match=r"weight table of z\^1000 "):
        diagonal_model((1000,), cap=F(4))


@st.composite
def _bound_cases(draw):
    d = draw(st.integers(2, 4))
    ms = tuple(draw(st.lists(st.integers(2, 9), min_size=d, max_size=d)))
    # caps in sixths up to 3, up to 2 for four variables to keep the box small
    cap = F(draw(st.integers(1, 18 if d < 4 else 12)), 6)
    return ms, cap, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_bound_cases())
def test_atom_lower_bound_is_below_box_count(case):
    # the bound diagonal_model refuses on never exceeds the atom count of
    # the independent box enumeration, for either weight
    ms, cap, usual = case
    assert weights._atoms_at_least(ms, cap) <= len(box_model(ms, cap, usual).weight)


@pytest.mark.parametrize("ms", [(205, 207, 209), (24000, 24000), (1800, 1800, 9000000),
                                (17000000, 17000000)])
def test_oversized_model_refused_before_any_table(ms):
    # the atom lower bound refuses these before the first one-variable
    # table is made, so the refusal holds almost nothing
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match=re.escape(f"{ms} below 3 has at least ")):
            diagonal_model(ms, F(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, peak


@pytest.mark.parametrize("ms, right", [
    ((400, 401), None), ((60, 61, 62), None), ((300, 301, 2), None), ((16, 16, 16, 16), None),
    ((400,), (401,)), ((60,), (61, 62)), ((10**6,), None)])
def test_pairing_peak_within_admitted_bytes(monkeypatch, ms, right):
    # admission must never undercount: a model build of one to four
    # variables, or a convolution with a one- or two-variable right factor,
    # peaks within the largest charge it admitted.  A last variable of
    # z^2 makes the left model nearly as long as the output
    factors = None if right is None else (diagonal_model(ms, F(3)), diagonal_model(right, F(3)))
    admitted = []
    monkeypatch.setattr(weights, "_admit", lambda nbytes, *what: admitted.append(nbytes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = diagonal_model(ms, F(3)) if right is None else convolve(*factors)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(model.weight) > 150_000
    assert peak <= max(admitted), peak / len(model.weight)


def test_steps_refused_before_the_pairs(monkeypatch):
    # the steps outgrow the model: at a table limit the model's build
    # passes, reading the steps is refused in one line, before any pair
    # array is made, and the model is untouched
    admitted = []
    real_admit = weights._admit
    monkeypatch.setattr(weights, "_admit",
                        lambda nbytes, *what: (admitted.append(nbytes), real_admit(nbytes, *what)))
    diagonal_microlocal_chain(Germ((30, 31)))
    monkeypatch.setattr(weights, "MAX_TABLE_BYTES", max(admitted))
    chain = diagonal_microlocal_chain(Germ((30, 31)))
    with pytest.raises(ResourceLimit) as refused:
        chain.steps
    message = str(refused.value)
    assert "\n" not in message
    assert message.startswith("steps of 6960 atoms below 2: 1305 levels, "
                              "45703 (level, generator) pairs: ")
    assert chain.model == diagonal_model((30, 31), chain.model.cap)


@pytest.mark.parametrize("ms", [(30, 31), (60, 61), (7, 8, 9), (5, 6, 7, 8), (200,)])
def test_steps_peak_within_admitted_bytes(monkeypatch, ms):
    # reading a chain's steps, its pair table and the step objects made
    # from it, peaks within the bytes the pair count was admitted at
    chain = diagonal_microlocal_chain(Germ(ms))
    admitted = []
    monkeypatch.setattr(weights, "_admit", lambda nbytes, *what: admitted.append(nbytes))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        chain.steps
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (chain.model.exps, chain.model.weight, chain.model.drop))
    assert len(admitted) == 1
    assert peak + held <= admitted[0], (peak, held, admitted)


def test_int64_overflow_refused():
    # cap * lcm(m) is about 1.5e19, past 2^63
    with pytest.raises(ResourceLimit, match=r"weight model of \(1291, .* overflow 64-bit"):
        diagonal_model((1291, 1297, 1301, 1303, 1307, 1319), cap=F(3))
    half = diagonal_model((2,), cap=F(3))  # weights 1/2, 3/2, 5/2
    with pytest.raises(ResourceLimit, match="overflow 64-bit integers"):
        rescaled(half, 2 * 10**19)
    wide = rescaled(half, 2 * 10**18)  # 5e18 fits; a pair weight of 1e19 does not
    with pytest.raises(ResourceLimit, match=r"pair weights of 3 x 3 atoms: .* overflow"):
        convolve(wide, wide)


def test_no_drop_is_never_shifted():
    # lcm(m) is about 7.7e17, so the zero exponent's weight is above 2^60,
    # and NO_DROP plus that weight would pass for a finite drop above 1/10
    ms = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 59)
    cap = alpha_tilde(Germ(ms)) + F(1, 5)
    model = diagonal_model(ms, cap=cap)
    assert model.weight[0] > 1 << 60 and model.drop[0] == weights.NO_DROP
    assert _gens(model, F(1, 10), False) == [(0,) * len(ms)]
    joined = convolve(diagonal_model(ms[:-1], cap=cap), diagonal_model(ms[-1:], cap=cap))
    assert joined == model


def test_level_cuts_do_not_overflow():
    # levels times a denominator of 10^18 would pass 2^63
    hi = 1 + F(1, 10**18)
    model = diagonal_model((2, 3), cap=hi + 2)
    assert jumpset_of(JumpChain(model, "V", hi)).values == (F(5, 6),)
    assert [s.level for s in JumpChain(model, "V", hi).steps] == [F(5, 6)]


def test_convolve_cap_shrinks_to_smallest():
    a = diagonal_model((2,), cap=F(5))
    b = diagonal_model((3,), cap=F(3))
    assert convolve(a, b).cap == F(3)
    assert convolve(a, b, cap=F(2)).cap == F(2)


def test_achieved_levels_match_bruteforce():
    # the jump set and the chain's levels read the model; the steps sweep it
    for ms in [(3,), (2, 3), (2, 2), (3, 4), (2, 3, 4)]:
        chain = diagonal_microlocal_chain(Germ(ms), window=F(2))
        want = bf_weight_levels(ms, F(2))
        assert list(jumpset_of(chain).values) == want
        assert list(chain.levels) == want
        assert [s.level for s in chain.steps] == want


def test_tables_survive_pickle_and_copy():
    # a chain survives with its model, which makes the same steps, and so do
    # the unit and zero ideals; test_monomial checks every frozen value type
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    steps = chain.steps
    for ideal in (MonomialIdeal.unit(2), MonomialIdeal.zero(3), steps[-1].ideal):
        for restored in (pickle.loads(pickle.dumps(ideal)), copy.deepcopy(ideal)):
            assert restored == ideal and restored.gens == ideal.gens
            with pytest.raises(AttributeError):
                restored.dim = 1
    for restored in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
        assert restored.steps == steps and restored.model == chain.model


def test_graded_exponents_counts():
    model = diagonal_model((2, 3), cap=F(3))
    assert graded_exponents(model, F(5, 6)).tolist() == [[0, 0]]
    assert graded_exponents(model, F(7, 6)).tolist() == [[0, 1]]
    assert graded_exponents(model, F(1)).shape == (0, 2)
    # off-lattice levels carry nothing
    assert graded_exponents(model, F(1, 7)).shape == (0, 2)


def test_permuted_model():
    model = diagonal_model((2, 5), cap=F(3))
    direct = diagonal_model((5, 2), cap=F(3))
    assert model.denom == direct.denom
    assert bf_permuted_atoms(model, (1, 0)) == bf_permuted_atoms(direct, (0, 1))


def test_rescaled_preserves_values():
    model = diagonal_model((2, 3), cap=F(2))
    scaled = rescaled(model, model.denom * 5)
    assert model == scaled and scaled == model
    # models compare by their atom tables over one denominator, and the cap
    assert model == diagonal_model((2, 3), cap=F(2))
    assert model != diagonal_model((2, 3), cap=F(3))
    assert model != diagonal_model((3, 2), cap=F(2))
    assert generators_at(scaled, F(5, 6), strict=True).gens == ((0, 1), (1, 0))


def _runs_by_loop(keys):
    return [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]


def test_runs_start_where_a_sorted_key_changes():
    rng = np.random.default_rng(343)
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    cases = [[], [7], [-3] * 5, list(range(-12, 18, 3)), [lo, lo, 0, hi, hi]]
    cases += [np.sort(rng.integers(-20, 20, n)) for n in (2, 17, 300, 5000)]
    for keys in cases:
        keys = np.asarray(keys, dtype=np.int64)
        keys.flags.writeable = False  # tables hand _runs read-only keys
        starts = weights._runs(keys)
        assert starts.dtype == np.intp
        assert starts.tolist() == _runs_by_loop(keys.tolist()), keys
