from fractions import Fraction as F

import pytest

from tsmult.errors import GermUnsupported, WindowExceeded
from tsmult.filtration import v_to_j
from tsmult.germs import (Germ, alpha_tilde, diagonal_microlocal_chain,
                          diagonal_usual_chain, lct,
                          milnor_number, one_var_weight, ts_sum)

from bruteforce import bf_micro_weight, bf_usual_weight


def test_one_var_weight_matches_recursion():
    for m in range(2, 12):
        for k in range(0, 4 * m):
            assert one_var_weight(m, k) == bf_micro_weight(m, k)
            assert one_var_weight(m, k, usual=True) == bf_usual_weight(m, k)


def test_one_var_weight_periodicity():
    for m in range(2, 9):
        for k in range(0, 3 * m):
            assert one_var_weight(m, k + m - 1) == one_var_weight(m, k) + 1


def test_one_var_weight_agrees_with_usual_below_one():
    for m in range(2, 9):
        for k in range(0, m - 1):
            assert one_var_weight(m, k) == F(k + 1, m)


def test_one_var_weight_errors():
    with pytest.raises(GermUnsupported):
        one_var_weight(1, 0)
    with pytest.raises(ValueError):
        one_var_weight(3, -1)


def test_germ_validation():
    with pytest.raises(GermUnsupported):
        Germ(())
    with pytest.raises(GermUnsupported):
        Germ((2, 1))
    with pytest.raises(GermUnsupported):
        Germ((2, 3), var_names=("z", "z"))
    with pytest.raises(GermUnsupported):
        Germ((2, 3), coefficients=(1, 0))
    with pytest.raises(GermUnsupported):
        Germ((2, 3), var_names=("x",))


def test_germ_defaults_and_str():
    g = Germ((2, 3))
    assert g.dim == 2
    assert g.var_names == ("z1", "z2")
    assert str(g) == "z1^2 + z2^3"
    h = Germ((4,), var_names=("w",), coefficients=(F(1, 2),))
    assert str(h) == "1/2*w^4"


def test_ts_sum():
    g = ts_sum(Germ((2,), var_names=("x",)), Germ((3,), var_names=("y",)))
    assert g.exponents == (2, 3)
    assert g.var_names == ("x", "y")
    with pytest.raises(GermUnsupported):
        ts_sum(Germ((2,), var_names=("x",)), Germ((3,), var_names=("x",)))


def test_alpha_tilde_lct_milnor():
    assert alpha_tilde(Germ((2, 3))) == F(5, 6)
    assert lct(Germ((2, 3))) == F(5, 6)
    assert alpha_tilde(Germ((2, 2, 2))) == F(3, 2)
    assert lct(Germ((2, 2, 2))) == 1
    assert milnor_number(Germ((2, 3, 5))) == 8
    assert milnor_number(Germ((2,))) == 1


def test_usual_chain_window_cap():
    with pytest.raises(WindowExceeded):
        diagonal_usual_chain(Germ((2, 3)), window=F(3, 2))
    chain = diagonal_usual_chain(Germ((2, 3)), window=F(1, 2))
    assert chain.window == F(1, 2)
    # the usual chain is the J-view of the microlocal chain on the same window
    for ms in [(2,), (2, 3), (3, 4, 5)]:
        for window in (F(1, 3), F(5, 6), F(1)):
            assert diagonal_usual_chain(Germ(ms), window) == \
                v_to_j(diagonal_microlocal_chain(Germ(ms), window)), (ms, window)


def test_micro_chain_default_window():
    chain = diagonal_microlocal_chain(Germ((2, 3)))
    assert chain.window == F(2)
    assert chain.mode == "V"
