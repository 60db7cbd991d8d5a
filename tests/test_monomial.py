import copy
import pickle
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsmult.errors import DimensionMismatch
from tsmult.filtration import JumpSet, jumpset_of, usual_jumpset
from tsmult.germs import Germ, diagonal_microlocal_chain
from tsmult.monomial import (MonomialIdeal, QuotientBasis, external_product, ideal_sum,
                             minimal_antichain)
from tsmult.spectral import EigenTable, Spectrum, fold_spectrum, spectrum_of

from bruteforce import bf_member, bf_minimal, bf_permuted

points_2d = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=12)
points_3d = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                               st.integers(0, 4)), max_size=10)


@given(points_2d)
def test_minimal_antichain_matches_bruteforce_2d(pts):
    assert list(minimal_antichain(pts)) == bf_minimal(pts)


@given(points_3d)
def test_minimal_antichain_matches_bruteforce_3d(pts):
    assert list(minimal_antichain(pts)) == bf_minimal(pts)


def test_minimal_antichain_large_input():
    pts = [(i, j) for i in range(12) for j in range(12) if i + j >= 8]
    assert list(minimal_antichain(pts)) == bf_minimal(pts)


def test_unit_and_zero():
    unit = MonomialIdeal.unit(2)
    zero = MonomialIdeal.zero(2)
    assert unit.is_unit and not unit.is_zero
    assert zero.is_zero and not zero.is_unit
    assert unit.contains((0, 0)) and unit.contains((3, 1))
    assert not zero.contains((0, 0))
    assert zero.contained_in(unit)
    assert not unit.contained_in(zero)
    # a zero ideal keeps its variable count in the shape of its rows
    assert zero.rows.shape == (0, 2) and zero != MonomialIdeal.zero(3)


@given(points_2d, st.tuples(st.integers(0, 8), st.integers(0, 8)))
def test_contains_matches_bruteforce(pts, nu):
    ideal = MonomialIdeal(2, pts)
    assert ideal.contains(nu) == bf_member(pts, nu)


@given(points_2d, points_2d)
def test_containment_and_sum(pts_a, pts_b):
    a = MonomialIdeal(2, pts_a)
    b = MonomialIdeal(2, pts_b)
    s = ideal_sum(a, b)
    assert a.contained_in(s) and b.contained_in(s)
    assert s == ideal_sum(b, a)
    assert s == MonomialIdeal(2, list(pts_a) + list(pts_b))
    # the external product pairs the rows with no sort: they come out
    # strictly lex-increasing and equal to the reduced products
    p = external_product(a, b)
    assert p == MonomialIdeal(4, [g + h for g in a.gens for h in b.gens])
    assert all(g < h for g, h in zip(p.gens, p.gens[1:]))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ideal_sum(MonomialIdeal.unit(2), MonomialIdeal.unit(3))
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, [(1, 2, 3)])
    # coordinates must be nonnegative integers that fit the int64 rows
    for bad in ((-1, 0), (1 << 63, 0), (True, 0), (1.0, 0)):
        with pytest.raises(ValueError):
            MonomialIdeal(2, [bad])


def test_external_product():
    a = MonomialIdeal(1, [(2,)])
    b = MonomialIdeal(2, [(0, 1), (3, 0)])
    p = external_product(a, b)
    assert p.dim == 3
    assert set(p.gens) == {(2, 0, 1), (2, 3, 0)}
    assert external_product(a, MonomialIdeal.zero(2)).is_zero
    lifted = external_product(MonomialIdeal.unit(1), b)
    assert set(lifted.gens) == {(0, 0, 1), (0, 3, 0)}


def test_permuted():
    ideal = MonomialIdeal(3, [(1, 2, 0), (0, 0, 3)])
    rotated = MonomialIdeal(3, bf_permuted(ideal.gens, (2, 0, 1)))
    assert set(rotated.gens) == {(0, 1, 2), (3, 0, 0)}
    # relabelling the variables commutes with the external product
    a = MonomialIdeal(2, [(1, 2), (3, 0)])
    b = MonomialIdeal(1, [(2,)])
    swapped = MonomialIdeal(3, bf_permuted(external_product(a, b).gens, (2, 0, 1)))
    assert swapped == external_product(b, a)


def test_json_round_trip():
    ideal = MonomialIdeal(2, [(1, 0), (0, 2)])
    assert MonomialIdeal.from_json(ideal.to_json()) == ideal
    assert ideal.to_json() == {"dim": 2, "gens": [[0, 2], [1, 0]]}
    # a coordinate that is not an integer is refused, not truncated
    with pytest.raises(ValueError):
        MonomialIdeal.from_json({"dim": 2, "gens": [[1.5, 0]]})


def _fields(value):
    return {name: getattr(value, name)
            for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())}


def test_quotient_basis_is_immutable_and_pickles_read_only():
    # every exact value type stands on monomial._Frozen: its fields are set
    # once, its arrays are read-only, and pickle and copy restore it so
    basis = QuotientBasis(np.array([[0, 1], [1, 0]], dtype=np.int64))
    ideal = MonomialIdeal(2, [(1, 0), (0, 1), (2, 2)])
    step = diagonal_microlocal_chain(Germ((2, 3)), window=F(2)).steps[0].ideal
    micro = jumpset_of(diagonal_microlocal_chain(Germ((2, 3)), window=F(1)))
    usual = usual_jumpset(micro, F(3))
    spectrum = spectrum_of(Germ((2, 3, 4)))
    values = (basis, ideal, step, micro, usual, spectrum, fold_spectrum(spectrum))
    assert {type(v) for v in values} == {QuotientBasis, MonomialIdeal, JumpSet, Spectrum,
                                         EigenTable}
    assert usual.periodic_tail and not micro.periodic_tail
    for value in values:
        fields = _fields(value)
        arrays = [name for name, field in fields.items() if type(field) is np.ndarray]
        assert arrays, value
        for name in arrays:
            with pytest.raises(ValueError):
                getattr(value, name)[...] = 5
        for name, field in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, name, field)
        for restored in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert restored == value and type(restored) is type(value)
            assert not any(getattr(restored, name).flags.writeable for name in arrays)
            if type(value).__hash__ is not None:  # monomial sets hash; tables do not
                assert hash(restored) == hash(value)
    assert basis != QuotientBasis(basis.rows[:1]) and basis.exponents == ((0, 1), (1, 0))
    assert ideal.gens == step.gens == ((0, 1), (1, 0)) and basis != ideal


def test_values_differing_in_a_scalar_field_are_unequal():
    # _Frozen compares scalar fields with ==, arrays with np.array_equal;
    # a pair here differs in one scalar field and holds equal arrays
    keys = np.array([1, 3], dtype=np.int64)
    plain, tail = JumpSet(4, keys, F(1)), JumpSet(4, keys, F(1), periodic_tail=True)
    wider = JumpSet(4, keys, F(2))
    table = (4, keys, np.array([2, 5], dtype=np.int64))
    curve, surface = Spectrum(2, _table=table), Spectrum(3, _table=table)
    for a, b in ((plain, tail), (plain, wider), (curve, surface)):
        assert np.array_equal(a.keys, b.keys) and a.denom == b.denom
        assert a != b and b != a
        for value in (a, b):
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value and restored != (b if value is a else a)
    assert JumpSet(4, keys, F(1)) == plain and Spectrum(2, _table=table) == curve
