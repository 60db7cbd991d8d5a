import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from tsmult.convolution import (alpha_one_sequence_check, irrationality_dim,
                                irrationality_module, ts_convolve_chains,
                                ts_graded, ts_jumpset, ts_lct, ts_multiplier)
from tsmult.errors import ChainKindError, NotReduced, ResourceLimit, WindowExceeded
from tsmult.filtration import (JumpSet, graded_at, jumpset_of, periodic_extend, v_lookup,
                               v_to_j)
from tsmult.germs import (Germ, diagonal_microlocal_chain, diagonal_usual_chain,
                          lct, one_var_microlocal_chain)
from tsmult.weights import generators_at

from bruteforce import (bf_check_basis, bf_diagonal_gens, bf_irrationality_basis,
                        bf_micro_weight, bf_pair_sum_v, bf_sumset, bf_ts_graded)


def test_convolve_pairs_match_direct():
    for m1, m2 in itertools.product(range(2, 7), repeat=2):
        direct = diagonal_microlocal_chain(Germ((m1, m2)), window=F(2))
        joined = ts_convolve_chains(one_var_microlocal_chain(m1),
                                    one_var_microlocal_chain(m2))
        assert joined == direct, (m1, m2)
        assert joined.window == F(2)


@pytest.mark.parametrize("ms,cut", [((50, 49), 1), ((12, 11, 10), 1), ((9, 9, 9, 9), 2)])
def test_swept_steps_match_point_lookups(ms, cut):
    window = F(2)

    def convolved():
        return ts_convolve_chains(diagonal_microlocal_chain(Germ(ms[:cut]), window),
                                  diagonal_microlocal_chain(Germ(ms[cut:]), window))

    chain = convolved()
    steps = chain.steps
    assert tuple(s.level for s in steps) == jumpset_of(chain).values
    for s in steps:
        assert s.ideal == generators_at(chain.model, s.level, strict=True), s.level
    # a J-view made before any sweep materialises the same steps
    assert v_to_j(convolved()).steps == steps


def test_convolve_window_rules():
    a = one_var_microlocal_chain(2, window=F(2))
    b = one_var_microlocal_chain(3, window=F(3))
    assert ts_convolve_chains(a, b).window == F(2)
    assert ts_convolve_chains(a, b, window=F(1)).window == F(1)
    with pytest.raises(WindowExceeded):
        ts_convolve_chains(a, b, window=F(5, 2))


def test_convolve_needs_microlocal_v_chains():
    micro = one_var_microlocal_chain(2)
    usual = diagonal_usual_chain(Germ((3,)))
    with pytest.raises(ChainKindError):
        ts_convolve_chains(micro, usual)


def test_convolved_values_match_split_formula():
    # the literal evaluation: V of the sum at alpha is the union of
    # box products of factor values over all splits of alpha
    for ms1, ms2 in [((2,), (3,)), ((3,), (4,)), ((2, 3), (2,)), ((2,), (5,))]:
        g1 = Germ(ms1, var_names=tuple(f"x{i}" for i in range(len(ms1))))
        g2 = Germ(ms2, var_names=tuple(f"y{i}" for i in range(len(ms2))))
        joined = ts_convolve_chains(diagonal_microlocal_chain(g1, window=F(2)),
                                    diagonal_microlocal_chain(g2, window=F(2)))
        grid = sorted({F(n, 12) for n in range(0, 24)})
        for alpha in grid:
            got = v_lookup(joined, alpha).gens
            want = tuple(bf_pair_sum_v(ms1, ms2, alpha))
            assert got == want, (ms1, ms2, alpha)


def test_ts_multiplier_cusp_goldens():
    c1 = one_var_microlocal_chain(2, window=F(1))
    c2 = one_var_microlocal_chain(3, window=F(1))
    assert ts_multiplier(c1, c2, F(1, 2)).is_unit
    assert ts_multiplier(c1, c2, F(5, 6)).gens == ((0, 1), (1, 0))
    assert ts_multiplier(c1, c2, F(11, 12)).gens == ((0, 1), (1, 0))


def test_ts_multiplier_matches_bruteforce_usual():
    c1 = one_var_microlocal_chain(3, window=F(1))
    c2 = one_var_microlocal_chain(4, window=F(1))
    for n in range(1, 12):
        alpha = F(n, 12)
        got = ts_multiplier(c1, c2, alpha).gens
        assert got == tuple(bf_diagonal_gens((3, 4), alpha, strict=True,
                                             usual=True)), alpha


def test_ts_multiplier_matches_usual_chain():
    # the convolved microlocal route and the direct usual chain agree below 1
    for ms in [(2, 3), (3, 5), (4, 6), (2, 3, 5), (3, 3, 4)]:
        c1 = one_var_microlocal_chain(ms[0], window=F(1))
        c2 = diagonal_microlocal_chain(Germ(ms[1:]), window=F(1))
        usual = diagonal_usual_chain(Germ(ms))
        den = 2 * math.lcm(*ms)
        for n in range(1, den):
            alpha = F(n, den)
            assert ts_multiplier(c1, c2, alpha) == periodic_extend(usual, alpha).ideal, (ms, alpha)


def test_ts_multiplier_domain():
    c1 = one_var_microlocal_chain(2, window=F(1))
    c2 = one_var_microlocal_chain(3, window=F(1))
    for bad in (F(0), F(1), F(3, 2), F(-1, 2)):
        with pytest.raises(WindowExceeded):
            ts_multiplier(c1, c2, bad)
    # only the factor models are read, so a J-mode factor gives the same ideal
    mixed = (c1, diagonal_usual_chain(Germ((3,))))
    for n in range(1, 12):
        alpha = F(n, 12)
        assert ts_multiplier(*mixed, alpha) == ts_multiplier(c1, c2, alpha), alpha


def test_ts_jumpset():
    s1 = jumpset_of(one_var_microlocal_chain(2, window=F(2)))
    s2 = jumpset_of(one_var_microlocal_chain(3, window=F(2)))
    joined = ts_jumpset(s1, s2)
    direct = jumpset_of(diagonal_microlocal_chain(Germ((2, 3)),
                                                  window=joined.window))
    assert joined.values == direct.values
    # the guaranteed window: each factor list is complete only so far
    assert joined.window == min(F(2) + F(1, 3), F(2) + F(1, 2))
    with pytest.raises(WindowExceeded):
        ts_jumpset(s1, s2, window=F(3))
    trimmed = ts_jumpset(s1, s2, window=F(1))
    assert trimmed.values == tuple(v for v in direct.values if v < 1)
    empty = JumpSet(1, [], F(1))
    for a, b in ((s1, s2), (empty, s2)):
        with pytest.raises(ValueError, match="window must be positive"):
            ts_jumpset(a, b, window=F(-1))


@pytest.mark.parametrize("ms1,ms2", [((2,), (3,)), ((4, 5), (3,)), ((2, 2), (2, 3)),
                                     ((7,), (5, 6)), ((3, 4, 5), (2,))])
def test_ts_jumpset_matches_fraction_sumset(ms1, ms2):
    # factor windows 2 and 3/2, the default (largest) window and cuts on
    # and off the levels' lattice; a factor with no levels below 1/7 gives none
    s1 = jumpset_of(diagonal_microlocal_chain(Germ(ms1), window=F(2)))
    s2 = jumpset_of(diagonal_microlocal_chain(Germ(ms2), window=F(3, 2)))
    top = ts_jumpset(s1, s2).window
    assert ts_jumpset(s1, s2).values == bf_sumset(s1, s2, top)
    for window in (F(1, 7), F(5, 6), F(1), F(3, 2), F(2)):
        if window > top:
            with pytest.raises(WindowExceeded):
                ts_jumpset(s1, s2, window)
        else:
            assert ts_jumpset(s1, s2, window).values == bf_sumset(s1, s2, window), window
    empty = jumpset_of(diagonal_microlocal_chain(Germ(ms1), window=F(1, 7)))
    assert ts_jumpset(empty, s2).values == ()


def test_ts_jumpset_refuses_before_forming_pairs():
    # about 5e9 of the 1e10 pairs of levels i / 10^5 lie below the window
    levels = JumpSet(10**5, np.arange(1, 10**5 + 1, dtype=np.int64), F(2))
    with pytest.raises(ResourceLimit, match="jump sums of 100000 x 100000 levels"):
        ts_jumpset(levels, levels)


def test_ts_lct():
    assert ts_lct(F(1, 2), F(1, 3)) == F(5, 6)
    assert ts_lct(F(1, 2), F(1, 2)) == F(1)
    assert ts_lct(F(1), F(1, 2)) == F(1)
    for m1, m2 in itertools.product(range(2, 6), repeat=2):
        assert ts_lct(lct(Germ((m1,))), lct(Germ((m2,)))) == lct(Germ((m1, m2)))
    with pytest.raises(ValueError):
        ts_lct(F(0), F(1, 2))
    with pytest.raises(ValueError):
        ts_lct(F(3, 2), F(1, 2))


def test_ts_graded_cusp():
    c1 = one_var_microlocal_chain(2, window=F(2))
    c2 = one_var_microlocal_chain(3, window=F(2))
    blocks = ts_graded(c1, c2, F(5, 6))
    assert [(b.level1, b.level2, b.dim) for b in blocks] == [(F(1, 2), F(1, 3), 1)]
    assert ts_graded(c1, c2, F(1)) == []
    blocks = ts_graded(c1, c2, F(7, 6))
    assert [(b.level1, b.level2, b.dim) for b in blocks] == [(F(1, 2), F(2, 3), 1)]
    # below 0 as at the window, as graded_at on the convolved chain refuses
    for alpha in (F(-1), F(2)):
        with pytest.raises(WindowExceeded, match=rf"{alpha} outside factor window \[0, 2\)"):
            ts_graded(c1, c2, alpha)
        with pytest.raises(WindowExceeded):
            graded_at(ts_convolve_chains(c1, c2), alpha)


def test_ts_graded_total_matches_direct():
    from tsmult.weights import graded_exponents
    c1 = diagonal_microlocal_chain(Germ((2, 3), var_names=("x1", "x2")), window=F(2))
    c2 = diagonal_microlocal_chain(Germ((3,), var_names=("y",)), window=F(2))
    direct = diagonal_microlocal_chain(Germ((2, 3, 3)), window=F(2))
    for alpha in direct.levels:
        blocks = ts_graded(c1, c2, alpha)
        total = sum(b.dim for b in blocks)
        assert total == len(graded_exponents(direct.model, alpha)), alpha


# every split of every ordered tuple up to three variables from 2..5; for
# four, sorted tuples from 2..4
_GRADED_SPLITS = [(ms, cut) for d in (2, 3) for ms in itertools.product(range(2, 6), repeat=d)
                  for cut in range(1, d)] + \
    [(ms, cut) for ms in itertools.combinations_with_replacement(range(2, 5), 4)
     for cut in range(1, 4)]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ts_graded_matches_per_level_oracle(d):
    window = F(2)
    for ms, cut in _GRADED_SPLITS:
        if len(ms) != d:
            continue
        c1 = diagonal_microlocal_chain(Germ(ms[:cut]), window)
        c2 = diagonal_microlocal_chain(Germ(ms[cut:]), window)
        den = 2 * math.lcm(*ms)  # alpha on (1/2D)Z, half of it off the levels' lattice
        for n in range(1, 2 * den):
            alpha = F(n, den)
            blocks = ts_graded(c1, c2, alpha)
            assert blocks == bf_ts_graded(c1, c2, alpha), (ms, cut, alpha)
            for block in blocks:
                bf_check_basis(block.basis1, cut)
                bf_check_basis(block.basis2, d - cut)


def test_irrationality_goldens():
    assert irrationality_dim(Germ((2, 2))) == 1      # node curve, delta = 1
    assert irrationality_dim(Germ((2, 3))) == 1      # cusp, delta = 1
    assert irrationality_dim(Germ((2, 2, 2))) == 0   # rational double point
    assert irrationality_dim(Germ((3, 3, 3))) == 1   # elliptic cone
    assert irrationality_dim(Germ((2, 3, 5))) == 0   # rational (exceptional type)
    basis = irrationality_module(Germ((3, 3)))
    assert set(basis.exponents) == {(0, 0), (0, 1), (1, 0)}
    with pytest.raises(NotReduced):
        irrationality_module(Germ((5,)))
    with pytest.raises(NotReduced):
        irrationality_dim(Germ((5,)))


@pytest.mark.parametrize("d,top", [(2, 10), (3, 7), (4, 5), (5, 4)])
def test_irrationality_dim_counts_spectrum_to_one(d, top):
    # the spectral count against the weight model's atoms of weight <= 1
    for ms in itertools.product(range(2, top), repeat=d):
        assert irrationality_dim(Germ(ms)) == irrationality_module(Germ(ms)).dim, ms


def test_irrationality_dim_past_the_model_limit():
    # the cap-3 weight model of this germ has 37,966,752 atoms and is refused
    assert irrationality_dim(Germ((200, 205, 209))) == 1396960


@pytest.mark.parametrize("d,top", [(2, 10), (3, 10), (4, 6)])
def test_irrationality_module_matches_bruteforce(d, top):
    for ms in itertools.product(range(2, top), repeat=d):
        basis = irrationality_module(Germ(ms))
        assert list(basis.exponents) == bf_irrationality_basis(ms), ms
        bf_check_basis(basis, d)


def test_alpha_one_colengths_match_bruteforce():
    # the splits of acceptance criterion 6
    for d1, d2 in [(1, 1), (1, 2), (2, 1)]:
        for ms1 in itertools.product(range(2, 6), repeat=d1):
            g1 = Germ(ms1, var_names=tuple(f"x{i}" for i in range(d1)))
            for ms2 in itertools.product(range(2, 6), repeat=d2):
                g2 = Germ(ms2, var_names=tuple(f"y{i}" for i in range(d2)))
                report = alpha_one_sequence_check(g1, g2)
                ms = ms1 + ms2
                basis = bf_irrationality_basis(ms)
                below = [nu for nu in basis
                         if sum(bf_micro_weight(m, k) for m, k in zip(ms, nu)) < 1]
                assert report.irrationality_dim == len(basis), ms
                assert report.v_one_cokernel_dim == len(below), ms


def test_alpha_one_sequence_golden():
    report = alpha_one_sequence_check(Germ((3,), var_names=("x",)),
                                      Germ((3,), var_names=("y",)))
    assert report.consistent
    assert report.g_tilde_dim == 2
    assert report.paired_g_tilde_dim == 2
    assert report.irrationality_dim == 3
    assert report.v_one_cokernel_dim == 1
    assert [(s.level1, s.level2, s.dim) for s in report.summands] == [
        (F(1, 3), F(2, 3), 1), (F(2, 3), F(1, 3), 1)]
    doc = report.to_json()
    assert doc["consistent"] is True
    assert doc["summands"] == [{"a1": "1/3", "a2": "2/3", "dim": 1},
                               {"a1": "2/3", "a2": "1/3", "dim": 1}]


def test_alpha_one_sequence_family():
    for ms1, ms2 in [((2,), (2,)), ((2,), (3,)), ((4,), (5,)),
                     ((2, 2), (3,)), ((2, 3), (4,)), ((3, 3), (3,))]:
        g1 = Germ(ms1, var_names=tuple(f"x{i}" for i in range(len(ms1))))
        g2 = Germ(ms2, var_names=tuple(f"y{i}" for i in range(len(ms2))))
        assert alpha_one_sequence_check(g1, g2).consistent, (ms1, ms2)
