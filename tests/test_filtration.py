import gc
import itertools
import math
from collections import Counter
import pickle
import random
from fractions import Fraction as F

import numpy as np
import pytest

from tsmult import filtration, weights
from tsmult.convolution import ts_convolve_chains, ts_graded
from tsmult.errors import ChainKindError, ResourceLimit, WindowExceeded
from tsmult.filtration import (JumpChain, JumpSet, JumpStep, graded_at,
                               j_lookup, jumpset_of, periodic_extend,
                               usual_jumpset, v_lookup, v_to_j)
from tsmult.germs import (Germ, alpha_tilde, diagonal_microlocal_chain, diagonal_usual_chain,
                          one_var_microlocal_chain)
from tsmult.monomial import MonomialIdeal
from tsmult.weights import diagonal_model, rescaled

from bruteforce import bf_check_basis, bf_diagonal_gens, bf_weight_levels


def test_one_var_cubic_chain_golden():
    chain = one_var_microlocal_chain(3, window=F(2))
    got = [(s.level, s.ideal.gens) for s in chain.steps]
    assert got == [(F(1, 3), ((1,),)), (F(2, 3), ((2,),)),
                   (F(4, 3), ((3,),)), (F(5, 3), ((4,),))]
    assert chain.top.is_unit


def test_cusp_chain_golden():
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    got = [(s.level, s.ideal.gens) for s in chain.steps]
    assert got == [(F(5, 6), ((0, 1), (1, 0))),
                   (F(7, 6), ((0, 2), (1, 0))),
                   (F(11, 6), ((0, 3), (1, 1), (2, 0)))]


def test_v_lookup_semantics():
    chain = one_var_microlocal_chain(3, window=F(2))
    # value of the filtration at alpha: constant between jumps, left-closed
    assert v_lookup(chain, F(0)).is_unit
    assert v_lookup(chain, F(1, 3)).is_unit
    assert v_lookup(chain, F(1, 2)).gens == ((1,),)
    assert v_lookup(chain, F(2, 3)).gens == ((1,),)
    assert v_lookup(chain, F(1)).gens == ((2,),)
    assert v_lookup(chain, F(5, 3)).gens == ((3,),)
    with pytest.raises(WindowExceeded):
        v_lookup(chain, F(2))
    with pytest.raises(WindowExceeded):
        v_lookup(chain, F(-1, 2))


def test_j_lookup_semantics():
    chain = v_to_j(one_var_microlocal_chain(3, window=F(2)))
    # multiplier side: right-continuous, drops exactly at the jump
    assert j_lookup(chain, F(0)).is_unit
    assert j_lookup(chain, F(1, 3)).gens == ((1,),)
    assert j_lookup(chain, F(1, 2)).gens == ((1,),)
    assert j_lookup(chain, F(2, 3)).gens == ((2,),)
    assert j_lookup(chain, F(4, 3)).gens == ((3,),)


def test_mode_gating():
    v_chain = one_var_microlocal_chain(3, window=F(2))
    with pytest.raises(ChainKindError):
        j_lookup(v_chain, F(1, 3))
    j_chain = v_to_j(v_chain)
    with pytest.raises(ChainKindError):
        v_lookup(j_chain, F(1, 3))
    with pytest.raises(ChainKindError):
        v_to_j(j_chain)


def test_chain_equality_across_model_caps():
    chain = one_var_microlocal_chain(3, window=F(2))
    # a larger cap gives a different atom table, with the same rows below the window
    wide = JumpChain(diagonal_model((3,), cap=F(5)), "V", F(2))
    assert chain == wide
    assert wide == chain
    assert chain != one_var_microlocal_chain(3, window=F(3, 2))
    assert chain != one_var_microlocal_chain(4, window=F(2))
    # equal steps over different denominators
    over_six = JumpChain(rescaled(wide.model, 6), "V", F(2))
    assert (chain.model.denom, over_six.model.denom) == (3, 6)
    assert chain.steps == over_six.steps and chain == over_six
    # same levels and generator counts, different generators
    cusp = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    swapped = diagonal_microlocal_chain(Germ((3, 2)), window=F(2))
    assert [s.level for s in cusp.steps] == [s.level for s in swapped.steps]
    assert cusp.steps != swapped.steps and cusp != swapped


def _equal_steps(a, b):
    """Chain equality as it was defined before it was read off the models."""
    return (a.mode, a.window, a.dim) == (b.mode, b.window, b.dim) and a.steps == b.steps


def _chain(rng, ms, window, mode):
    """A chain of ms on the window over a model of random cap and denominator."""
    model = diagonal_model(ms, cap=window + rng.randint(2, 5))
    return JumpChain(rescaled(model, model.denom * rng.choice((1, 2, 5))), mode, window)


def test_equality_is_step_equality():
    # equal chains over models of other caps and denominators, and near
    # misses: permuted or nudged exponents, other windows and modes, and
    # windows at or below alpha~ = sum 1/m, where no row is light and any
    # two chains of one dim, mode and window have no steps
    rng = random.Random(20261022)
    drawn = Counter()
    for _ in range(600):
        ms = tuple(rng.randint(2, 7) for _ in range(rng.randint(1, 3)))
        other = list(ms)
        if rng.random() < 0.5:
            rng.shuffle(other)
        else:
            j = rng.randrange(len(other))
            other[j] = max(2, other[j] + rng.choice((-1, 1)))
        window = F(rng.randint(1, 30), rng.choice((4, 6, 12)))
        mode = rng.choice("VJ")
        b_ms = rng.choice((ms, tuple(other)))
        a = _chain(rng, ms, window, mode)
        b = _chain(rng, b_ms, window if rng.random() < 0.9 else window + F(1, 12),
                   mode if rng.random() < 0.9 else "VJ"[mode == "V"])
        want = _equal_steps(a, b)
        assert (a == b, b == a) == (want, want), (ms, b_ms, a, b)
        drawn[want] += 1
        if want and window <= alpha_tilde(Germ(ms)) and sorted(ms) != sorted(b_ms):
            drawn["equal below alpha~"] += 1
    # both verdicts are drawn often, and so are equal chains of other
    # exponents below alpha~, which an equality keeping the zero row misses
    assert min(drawn[True], drawn[False], 10 * drawn["equal below alpha~"]) >= 100, drawn


def test_equality_makes_no_steps(monkeypatch):
    # the steps of these two chains hold 8.1 million (level, generator) pairs
    # each, and comparing them took over a second; their light rows differ
    def no_steps(*args):
        raise AssertionError("equality made the steps")

    monkeypatch.setattr(weights, "MAX_TABLE_BYTES", 1 << 27)
    a = diagonal_microlocal_chain(Germ((60, 61, 7)))
    b = diagonal_microlocal_chain(Germ((61, 60, 7)))
    with pytest.raises(ResourceLimit, match="steps of"):
        a.steps
    monkeypatch.setattr(filtration, "_make_steps", no_steps)
    monkeypatch.setattr(weights, "_strict_steps", no_steps)
    assert a != b and b != a
    assert a == JumpChain(a.model, "V", a.window) and v_to_j(a) != a


def test_chain_holds_its_model_and_no_step():
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    size = len(pickle.dumps(chain))
    assert chain.steps == chain.steps and chain.steps is not chain.steps
    assert len(pickle.dumps(chain)) == size
    with pytest.raises(AttributeError):
        chain.window = F(1)
    assert chain.window == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(chain)


def test_steps_share_generators_and_resume_the_collector():
    want = (JumpStep(F(5, 6), MonomialIdeal(2, [(0, 1), (1, 0)])),
            JumpStep(F(7, 6), MonomialIdeal(2, [(0, 2), (1, 0)])),
            JumpStep(F(11, 6), MonomialIdeal(2, [(0, 3), (1, 1), (2, 0)])))
    steps = diagonal_microlocal_chain(Germ((2, 3)), window=F(2)).steps
    assert steps == want
    # the steps' generator rows are read-only slices of one array
    assert not any(s.ideal.rows.flags.writeable for s in steps)
    base = steps[0].ideal.rows.base
    assert base is not None and all(s.ideal.rows.base is base for s in steps)
    assert diagonal_microlocal_chain(Germ((2, 3)), window=F(1, 2)).steps == ()
    # the collector paused for the build is left as it was found
    assert gc.isenabled()
    gc.disable()
    try:
        assert diagonal_microlocal_chain(Germ((2, 3)), window=F(2)).steps == want
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert diagonal_microlocal_chain(Germ((2, 3)), window=F(2)).steps == want
    assert gc.isenabled()


def test_chain_json_shapes():
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    v_doc = chain.to_json()
    assert v_doc["mode"] == "V"
    assert list(v_doc) == ["mode", "window", "dim", "top", "jumps"]
    # V-side levels carry the value of the filtration at the level itself,
    # so the first entry repeats the top ideal
    assert v_doc["jumps"][0] == {"level": "5/6", "ideal": {"dim": 2, "gens": [[0, 0]]}}
    assert v_doc["jumps"][1]["ideal"]["gens"] == [[0, 1], [1, 0]]
    j_doc = v_to_j(chain).to_json()
    assert j_doc["mode"] == "J"
    assert j_doc["jumps"][0] == {
        "level": "5/6", "ideal": {"dim": 2, "gens": [[0, 1], [1, 0]]}}


def test_graded_at_cusp():
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    assert graded_at(chain, F(5, 6)).exponents == ((0, 0),)
    assert graded_at(chain, F(7, 6)).exponents == ((0, 1),)
    assert graded_at(chain, F(1)).dim == 0
    assert graded_at(chain, F(1, 2)).dim == 0
    for alpha in (F(5, 6), F(7, 6), F(1), F(1, 2)):
        bf_check_basis(graded_at(chain, alpha), 2)


def test_jumpset_and_usual_jumpset():
    micro = jumpset_of(diagonal_microlocal_chain(Germ((2, 3)), window=F(1)))
    assert micro.values == (F(5, 6),)
    usual = usual_jumpset(micro, F(3))
    assert usual.values == (F(5, 6), F(1), F(11, 6), F(2), F(17, 6))
    assert usual.periodic_tail


@pytest.mark.parametrize("ms", [(2,), (2, 2), (2, 3), (5, 7), (3, 4, 5)])
def test_usual_jumpset_matches_sorted_construction(ms):
    # listing the base shift by shift equals sorting every v + shift below
    # the window; the microlocal set runs past 1, and (2, 2) jumps at 1
    micro = jumpset_of(diagonal_microlocal_chain(Germ(ms), window=F(2)))
    base = sorted({v for v in micro.values if v < 1} | {F(1)})
    for window in (F(1, 7), F(5, 6), F(1), F(3, 2), F(2), F(7, 3), F(4)):
        want = sorted(v + shift for v in base for shift in range(math.ceil(window - v)))
        assert usual_jumpset(micro, window).values == tuple(want), window


def test_jumpset_table_is_canonical_and_read_only():
    # 10/12 and 12/12 reduce to 5/6 and 1 over the least denominator
    table = JumpSet(12, np.array([10, 12]), F(3))
    assert table == JumpSet(6, np.array([5, 6]), F(3))
    assert (table.denom, table.keys.tolist(), table.values) == (6, [5, 6], (F(5, 6), F(1)))
    assert table != JumpSet(6, np.array([5, 6]), F(3), periodic_tail=True)
    assert table != JumpSet(6, np.array([5, 6]), F(2))
    assert table.to_json() == {"window": "3", "values": ["5/6", "1"], "periodic_tail": False}
    assert JumpSet(7, np.array([], dtype=np.int64), F(1)).denom == 1
    with pytest.raises(ValueError):
        table.keys[0] = 1
    with pytest.raises(AttributeError):
        table.window = F(1)
    with pytest.raises(ValueError, match="outside"):
        JumpSet(6, np.array([5, 18]), F(3))
    with pytest.raises(ValueError, match="distinct and ascending"):
        JumpSet(6, [6, 5], F(3))
    assert JumpSet(6, [5, 6], F(3)) == table  # any integer sequence
    # a window must be positive, as a chain's must, an empty set's too
    for window in (F(0), F(-1)):
        with pytest.raises(ValueError, match="window must be positive"):
            JumpSet(6, [], window)
        with pytest.raises(ValueError, match="window must be positive"):
            usual_jumpset(table, window)


def test_usual_jumpset_refuses_int64_overflow():
    # shifts up to the window times a denominator of 2^61 pass 2^63
    micro = JumpSet(1 << 61, np.array([1], dtype=np.int64), F(1))
    with pytest.raises(ResourceLimit, match="64-bit"):
        usual_jumpset(micro, F(5))


def test_usual_jumpset_needs_full_first_window():
    micro = jumpset_of(one_var_microlocal_chain(3, window=F(1, 2)))
    with pytest.raises(WindowExceeded):
        usual_jumpset(micro, F(2))


def test_usual_chain_matches_bruteforce():
    for ms in [(2,), (3,), (2, 3), (3, 4)]:
        chain = diagonal_usual_chain(Germ(ms))
        for n in range(0, 12):
            alpha = F(n, 12)
            assert j_lookup(chain, alpha).gens == tuple(
                bf_diagonal_gens(ms, alpha, strict=True, usual=True)), (ms, alpha)


def test_swept_steps_match_bruteforce():
    shapes = [ms for d in (1, 2) for ms in itertools.product(range(2, 8), repeat=d)]
    shapes += list(itertools.product(range(2, 5), repeat=3))
    brute = {}  # the ideal at a level does not depend on the window
    for ms in shapes:
        for window in (F(1), F(3, 2), F(2), F(3)):
            steps = diagonal_microlocal_chain(Germ(ms), window=window).steps
            assert [s.level for s in steps] == bf_weight_levels(ms, window), (ms, window)
            for s in steps:
                key = (ms, s.level)
                if key not in brute:
                    brute[key] = tuple(bf_diagonal_gens(ms, s.level, strict=True))
                assert s.ideal.gens == brute[key], (ms, window, s.level)
        steps = diagonal_usual_chain(Germ(ms)).steps
        assert [s.level for s in steps] == bf_weight_levels(ms, F(1), usual=True), ms
        for s in steps:
            assert s.ideal.gens == tuple(
                bf_diagonal_gens(ms, s.level, strict=True, usual=True)), (ms, s.level)


def test_periodic_extend():
    chain = diagonal_usual_chain(Germ((2, 3)))
    assert periodic_extend(chain, F(0)) == periodic_extend(chain, F(0))
    assert periodic_extend(chain, F(0)).power == 0
    assert periodic_extend(chain, F(0)).ideal.is_unit
    five_sixths = periodic_extend(chain, F(5, 6))
    assert five_sixths.power == 0
    assert five_sixths.ideal.gens == ((0, 1), (1, 0))
    at_one = periodic_extend(chain, F(1))
    assert at_one.power == 1 and at_one.ideal.is_unit
    echo = periodic_extend(chain, F(11, 6))
    assert echo.power == 1 and echo.ideal.gens == ((0, 1), (1, 0))
    with pytest.raises(ValueError):
        periodic_extend(chain, F(-1, 6))


def test_chain_sides_are_checked():
    # the J-side reads refuse a V-mode chain; the V-side builds refuse a J-mode one
    micro = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    for read in (periodic_extend, j_lookup):
        with pytest.raises(ChainKindError):
            read(micro, F(1, 2))
    view = v_to_j(micro)
    with pytest.raises(ChainKindError):
        ts_convolve_chains(micro, view)
    with pytest.raises(ChainKindError):
        ts_graded(view, micro, F(1))


def test_periodic_extend_reads_any_j_view():
    # a J-view of the microlocal chain, whatever its window, answers as the
    # usual chain does and as the Newton weights do, on every period
    for ms in [(2,), (5,), (2, 3), (3, 4), (2, 3, 4)]:
        usual = diagonal_usual_chain(Germ(ms))
        den = 2 * math.lcm(*ms)
        for window in (F(1), F(3, 2), F(2)):
            view = v_to_j(diagonal_microlocal_chain(Germ(ms), window))
            for n in range(3 * den):
                alpha = F(n, den)
                got = periodic_extend(view, alpha)
                assert got == periodic_extend(usual, alpha), (ms, window, alpha)
                k = math.floor(alpha)
                assert got.power == k
                assert got.ideal.gens == tuple(
                    bf_diagonal_gens(ms, alpha - k, strict=True, usual=True)), (ms, alpha)


def test_repr_makes_no_steps(monkeypatch):
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))

    def no_steps(model, window):
        raise AssertionError("repr made the steps")

    monkeypatch.setattr(filtration, "_make_steps", no_steps)
    assert repr(chain) == "JumpChain(mode='V', window=2, dim=2, jumps=3)"
    assert repr(v_to_j(chain)) == "JumpChain(mode='J', window=2, dim=2, jumps=3)"


def test_steps_keep_both_window_guards():
    model = diagonal_model((2, 3), cap=F(2))

    def steps(window, mode="V"):
        return JumpChain(model, mode, window).steps

    # 7/6 is the first window past 1 over the denominator 6; at 3/2 the
    # achieved level 7/6 would be within 1 of the cap
    for window in (F(3), F(3, 2), F(7, 6)):
        for mode in ("V", "J"):
            with pytest.raises(WindowExceeded, match=f"window {window} needs a model "
                                                     f"cap of at least {window + 1}, not 2"):
                steps(window, mode)
    assert steps(F(1)) == (JumpStep(F(5, 6), MonomialIdeal(2, [(0, 1), (1, 0)])),)


def test_chain_from_model_needs_headroom():
    # a read below the window asks for generators up to 1 above it, so a
    # model whose cap is less than 1 above the window misses some: this
    # one, paired with z^5, gave graded dimension 1 where the full chain
    # of z1^2 + z2^3 gives 3
    short = diagonal_model((2, 3), cap=F(2))
    full = diagonal_microlocal_chain(Germ((2, 3)), F(3))
    five = diagonal_microlocal_chain(Germ((5,)), F(3))
    for alpha in (F(71, 30), F(77, 30), F(83, 30), F(89, 30)):
        assert sum(s.dim for s in ts_graded(full, five, alpha)) == 3, alpha
    with pytest.raises(WindowExceeded):
        JumpChain(short, "V", F(3))
    wide = JumpChain(diagonal_model((2, 3), cap=F(3)), "V", F(1))
    assert wide.levels == (F(5, 6),)
