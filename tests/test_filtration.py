import itertools
from fractions import Fraction as F

import pytest

from tsmult.errors import ChainKindError, WindowExceeded
from tsmult.filtration import (JumpChain, JumpStep, chain_from_model, graded_at,
                               j_lookup, jumpset_of, periodic_extend,
                               usual_jumpset, v_lookup, v_to_j)
from tsmult.germs import (Germ, diagonal_microlocal_chain, diagonal_usual_chain,
                          one_var_microlocal_chain)
from tsmult.monomial import MonomialIdeal
from tsmult.weights import diagonal_model

from bruteforce import bf_diagonal_gens, bf_weight_levels


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


def test_chain_equality_model_vs_steps():
    model_chain = one_var_microlocal_chain(3, window=F(2))
    explicit = JumpChain(
        mode="V", family="microlocal", window=F(2), dim=1,
        top=MonomialIdeal.unit(1),
        steps=[JumpStep(F(1, 3), MonomialIdeal(1, [(1,)])),
               JumpStep(F(2, 3), MonomialIdeal(1, [(2,)])),
               JumpStep(F(4, 3), MonomialIdeal(1, [(3,)])),
               JumpStep(F(5, 3), MonomialIdeal(1, [(4,)]))])
    assert model_chain == explicit
    assert explicit == model_chain


def test_chain_json_shapes():
    chain = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    v_doc = chain.to_json()
    assert v_doc["mode"] == "V" and v_doc["family"] == "microlocal"
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


def test_jumpset_and_usual_jumpset():
    micro = jumpset_of(diagonal_microlocal_chain(Germ((2, 3)), window=F(1)))
    assert micro.values == (F(5, 6),)
    usual = usual_jumpset(micro, F(3))
    assert usual.values == (F(5, 6), F(1), F(11, 6), F(2), F(17, 6))
    assert usual.periodic_tail


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


def test_periodic_extend_needs_usual_j_chain():
    micro = diagonal_microlocal_chain(Germ((2, 3)), window=F(2))
    with pytest.raises(ChainKindError):
        periodic_extend(micro, F(1, 2))
    with pytest.raises(ChainKindError):
        periodic_extend(v_to_j(micro), F(1, 2))


def test_steps_keep_both_window_guards():
    model = diagonal_model((2, 3), cap=F(2))

    def steps(window):
        return JumpChain("V", "microlocal", window, 2, MonomialIdeal.unit(2),
                         model=model).steps

    with pytest.raises(WindowExceeded, match="exceeds the model cap"):
        steps(F(3))
    # 7/6 is an achieved level within 1 of the cap
    with pytest.raises(WindowExceeded, match="threshold 7/6 is too close"):
        steps(F(3, 2))
    assert steps(F(1)) == (JumpStep(F(5, 6), MonomialIdeal(2, [(0, 1), (1, 0)])),)


def test_chain_from_model_needs_headroom():
    model = diagonal_model((2, 3), cap=F(2))
    with pytest.raises(WindowExceeded):
        chain_from_model(model, F(1), mode="V", family="microlocal")
    chain = chain_from_model(diagonal_model((2, 3), cap=F(3)), F(1),
                             mode="V", family="microlocal")
    assert chain.levels == (F(5, 6),)
