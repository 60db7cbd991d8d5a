import itertools
import math
import random
import threading
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsmult import oracles
from tsmult.errors import OracleMismatch
from tsmult.filtration import j_lookup
from tsmult.germs import Germ, one_var_usual_chain
from tsmult.monomial import MonomialIdeal
from tsmult.oracles import (Constraint, MonteCarloConfig, exact_monomial_integrable,
                            fm_feasible, mc_case_set, monte_carlo_integrable,
                            newton_membership, one_var_integrable, summation_path)

from bruteforce import bf_fm_feasible, bf_mc_estimates, bf_spectrum


def test_one_var_integrable_goldens():
    assert not one_var_integrable(0, 3, F(1, 3))   # boundary log-divergence
    assert one_var_integrable(0, 3, F(1, 4))
    assert one_var_integrable(2, 3, F(1, 2))
    with pytest.raises(ValueError):
        one_var_integrable(-1, 3, F(1, 2))
    with pytest.raises(ValueError):
        one_var_integrable(0, 3, F(-1, 2))


def test_one_var_integrable_matches_chain():
    for m in range(2, 8):
        chain = one_var_usual_chain(m)
        for n in range(0, 2 * m):
            alpha = F(2 * n + 1, 4 * m)  # off the i/m jump grid
            if alpha >= 1:
                continue
            for g in range(0, m + 1):
                assert one_var_integrable(g, m, alpha) == j_lookup(
                    chain, alpha).contains((g,)), (m, g, alpha)


def test_fm_feasible_basics():
    one = F(1)
    # x <= 2 and -x <= -1 (i.e. x >= 1): feasible
    assert fm_feasible([Constraint((one,), F(2), False),
                        Constraint((-one,), F(-1), False)], 1)
    # x <= 1 and x >= 1 weakly: feasible at the point
    assert fm_feasible([Constraint((one,), F(1), False),
                        Constraint((-one,), F(-1), False)], 1)
    # x < 1 and x > 1: infeasible
    assert not fm_feasible([Constraint((one,), F(1), True),
                            Constraint((-one,), F(-1), True)], 1)
    # x <= 0 and x > 0: infeasible through the strict flag
    assert not fm_feasible([Constraint((one,), F(0), False),
                            Constraint((-one,), F(0), True)], 1)
    # two variables, coupled: x + y <= 1, x >= 1, y > 0 infeasible
    assert not fm_feasible([Constraint((one, one), F(1), False),
                            Constraint((-one, F(0)), F(-1), False),
                            Constraint((F(0), -one), F(0), True)], 2)
    # no variables: the rows are constants, 0 <= -1 is infeasible and 0 <= 0 is not
    assert not fm_feasible([Constraint((), F(-1), False)], 0)
    assert not fm_feasible([Constraint((), F(0), True)], 0)
    assert fm_feasible([Constraint((), F(0), False)], 0)
    # rows must have exactly nvars coefficients: 0*x + y <= -1 and 0*x - y <= -1
    # is infeasible in two variables, and is not a system in one
    rows = [Constraint((F(0), one), F(-1), False), Constraint((F(0), -one), F(-1), False)]
    assert not fm_feasible(rows, 2)
    with pytest.raises(ValueError, match="needs 1 coefficients"):
        fm_feasible(rows, 1)


rationals = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.builds(Constraint, st.tuples(*[rationals] * n), rationals, st.booleans()),
    min_size=1, max_size=6))))
def test_fm_feasible_matches_fraction_elimination(system):
    nvars, constraints = system
    assert fm_feasible(constraints, nvars) == bf_fm_feasible(constraints, nvars)


def test_newton_membership_goldens():
    cubic = MonomialIdeal(1, [(3,)])
    assert newton_membership(cubic, (0,), F(1, 4))
    assert not newton_membership(cubic, (0,), F(1, 3))  # boundary is not interior
    pair = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert newton_membership(pair, (0, 0), F(3, 4))
    assert not newton_membership(pair, (0, 0), F(5, 6))
    with pytest.raises(ValueError):
        newton_membership(MonomialIdeal.zero(2), (0, 0), F(1, 2))
    with pytest.raises(ValueError):
        newton_membership(pair, (0, 0), F(0))
    for nu in [(0,), (0, 0, 5), (0, -1)]:  # too short, too long, negative
        with pytest.raises(ValueError):
            newton_membership(pair, nu, F(1, 2))


diagonal_ideals = st.lists(st.integers(1, 6), min_size=2, max_size=3).map(
    lambda ms: MonomialIdeal(len(ms), [tuple(m * (i == j) for i in range(len(ms)))
                                       for j, m in enumerate(ms)]))
other_ideals = st.integers(2, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(0, 5)] * d), min_size=1, max_size=4).map(
    lambda gens: MonomialIdeal(d, gens)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(diagonal_ideals, other_ideals),
       st.lists(st.integers(0, 6), min_size=3, max_size=3),
       st.fractions(min_value=F(1, 12), max_value=3, max_denominator=12))
def test_newton_membership_upward_closed(ideal, nu, alpha):
    # the premise of summation_path's boundary walk
    nu = tuple(nu[:ideal.dim])
    if newton_membership(ideal, nu, alpha):
        for k in range(ideal.dim):
            up = tuple(v + (i == k) for i, v in enumerate(nu))
            assert newton_membership(ideal, up, alpha), (ideal.gens, nu, alpha, k)


def test_newton_membership_closed_form_diagonal():
    # on diagonal term ideals the interior test collapses to the weight sum
    for m1, m2 in itertools.product((2, 3, 5, 9), repeat=2):
        ideal = MonomialIdeal(2, [(m1, 0), (0, m2)])
        den = m1 * m2
        for nu in itertools.product(range(0, 9, 2), repeat=2):
            weight = F(nu[0] + 1, m1) + F(nu[1] + 1, m2)
            for j in range(1, 2 * den, den // 2):
                alpha = F(j, den)
                assert newton_membership(ideal, nu, alpha) == (weight > alpha)


def test_newton_membership_closed_form_three_vars():
    ideal = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])
    for nu in itertools.product(range(0, 5), repeat=3):
        weight = F(nu[0] + 1, 2) + F(nu[1] + 1, 3) + F(nu[2] + 1, 4)
        for alpha in (F(1, 2), F(11, 12), F(13, 12), F(25, 12)):
            assert newton_membership(ideal, nu, alpha) == (weight > alpha)


def test_newton_membership_non_diagonal():
    # staircase with an interior-breaking middle generator
    ideal = MonomialIdeal(2, [(3, 0), (1, 1), (0, 3)])
    # (1,1) scaled by 1: nu + 1 = (2, 2) is interior
    assert newton_membership(ideal, (1, 1), F(1))
    # nu + 1 = (1, 1) sits on the hull boundary segment through (1,1)
    assert not newton_membership(ideal, (0, 0), F(1))
    assert newton_membership(ideal, (0, 0), F(1, 2))


def test_summation_path_goldens():
    assert summation_path(2, 3, F(5, 6)).gens == ((0, 1), (1, 0))
    assert summation_path(2, 3, F(1, 2)).is_unit
    assert summation_path(2, 2, F(3, 4)).is_unit
    with pytest.raises(ValueError):
        summation_path(2, 3, F(1))
    with pytest.raises(ValueError):
        summation_path(2, 3, F(0))


def test_summation_path_small_grid():
    for m1, m2 in itertools.product(range(2, 5), repeat=2):
        den = m1 * m2
        for j in range(1, den):
            alpha = F(j, den)
            a = MonomialIdeal(2, [(m1, 0), (0, m2)])
            box = MonomialIdeal(2, [(i, k) for i in range(m1 + 1) for k in range(m2 + 1)
                                    if newton_membership(a, (i, k), alpha)])
            # raises OracleMismatch when the boundary walk and the split formula differ
            assert summation_path(m1, m2, alpha) == box, (m1, m2, alpha)


def test_exact_monomial_integrable():
    cusp = Germ((2, 3))
    assert exact_monomial_integrable(cusp, (0, 0), F(7, 10))
    assert not exact_monomial_integrable(cusp, (0, 0), F(5, 6))
    assert exact_monomial_integrable(cusp, (1, 2), F(9, 10))
    # nothing is integrable at or beyond 1
    assert not exact_monomial_integrable(cusp, (8, 8), F(1))


def test_monte_carlo_cusp_goldens():
    cusp = Germ((2, 3))
    assert monte_carlo_integrable(cusp, (0, 0), F(7, 10))["verdict"] == "Integrable"
    assert monte_carlo_integrable(cusp, (0, 0), F(19, 20))["verdict"] == "Divergent"
    assert monte_carlo_integrable(cusp, (0, 0), F(5, 6))["verdict"] == "Inconclusive"


def test_monte_carlo_deterministic_and_shaped():
    cusp = Germ((2, 3))
    config = MonteCarloConfig(shells=6, samples=2000, seed=7)
    a = monte_carlo_integrable(cusp, (0, 0), F(7, 10), config)
    b = monte_carlo_integrable(cusp, (0, 0), F(7, 10), config)
    assert a == b
    assert len(a["shells"]) == 6
    assert a["seed"] == 7 and a["samples"] == 2000
    other = monte_carlo_integrable(cusp, (0, 0), F(7, 10),
                                   MonteCarloConfig(shells=6, samples=2000, seed=8))
    assert other["shells"] != a["shells"]


def test_monte_carlo_validation():
    cusp = Germ((2, 3))
    with pytest.raises(ValueError):
        monte_carlo_integrable(cusp, (0,), F(1, 2))
    with pytest.raises(ValueError):
        monte_carlo_integrable(cusp, (0, -1), F(1, 2))
    with pytest.raises(ValueError):
        monte_carlo_integrable(cusp, (0, 0), F(-1, 2))
    for bad in [dict(shells=1), dict(shells=0), dict(samples=0),
                dict(margin=-0.01), dict(margin=1.0), dict(seed=-1)]:
        with pytest.raises(ValueError):
            MonteCarloConfig(**bad)
    MonteCarloConfig(shells=2, samples=1, margin=0.0)


_MC_CASES = [(Germ((3,)), (1,), F(1, 4)), (Germ((2, 3)), (0, 0), F(7, 10)),
             (Germ((2, 3, 4)), (1, 2, 1), F(1, 3)), (Germ((2, 2, 3, 3)), (1, 0, 2, 1), F(1, 2)),
             # a coefficient's sign rides in its real term
             (Germ((2, 5), ("x", "y"), (2, F(-1, 3))), (1, 2), F(1, 2)),
             (Germ((3,), ("x",), (F(-3, 2),)), (1,), F(1, 4))]


def test_monte_carlo_matches_complex_formula():
    # the real-arithmetic kernel on the same draws as the complex formula
    # z = r exp(2 pi i theta), |sum c_j z_j^m_j|: the same floats up to
    # rounding, and the same verdict; few samples let one sample near a
    # zero of f carry an estimate, and the default count is the one in use
    cases = [(c.germ, c.nu, c.alpha) for c in mc_case_set(count=40, seed=1)] + _MC_CASES
    for config in (MonteCarloConfig(samples=50), MonteCarloConfig(shells=2)):
        for germ, nu, alpha in cases:
            got = monte_carlo_integrable(germ, nu, alpha, config)
            estimates, ratio = bf_mc_estimates(germ, nu, alpha, config)
            assert [s["estimate"] for s in got["shells"]] == pytest.approx(estimates, rel=1e-9), \
                (germ, nu, alpha)
            assert got["ratio"] == pytest.approx(ratio, rel=1e-9), (germ, nu, alpha)
            if ratio <= 1 - config.margin:
                want = "Integrable"
            elif ratio >= 1 + config.margin:
                want = "Divergent"
            else:
                want = "Inconclusive"
            assert got["verdict"] == want, (germ, nu, alpha)


def test_monte_carlo_bits_do_not_depend_on_workers(monkeypatch):
    # each shell has its own generator and buffers, so splitting the shells
    # over one, two or three workers gives the same evidence, and every
    # helper thread is gone when the call returns
    configs = (MonteCarloConfig(), MonteCarloConfig(shells=2, samples=50),
               MonteCarloConfig(shells=7, samples=333, seed=4))
    results = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(oracles, "_workers", lambda shells: workers)
        for germ, nu, alpha in _MC_CASES:
            for config in configs:
                before = threading.active_count()
                results.setdefault((germ, nu, alpha, config), []).append(
                    monte_carlo_integrable(germ, nu, alpha, config))
                assert threading.active_count() == before
    for evidence in results.values():
        assert evidence[0] == evidence[1] == evidence[2]


@pytest.mark.parametrize("failing_shell", [1, 2])
def test_monte_carlo_shell_exception_reaches_caller(monkeypatch, capfd, failing_shell):
    # with two workers the caller runs the odd shells and a helper the even
    # ones; either one's exception is raised by the call, after the join
    real_rng = oracles.np.random.default_rng

    def rng(seed):
        if seed[2] == failing_shell:
            raise RuntimeError(f"shell {failing_shell} failed")
        return real_rng(seed)

    monkeypatch.setattr(oracles, "_workers", lambda shells: 2)
    monkeypatch.setattr(oracles.np.random, "default_rng", rng)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"shell {failing_shell} failed"):
        monte_carlo_integrable(Germ((2, 3)), (0, 0), F(7, 10))
    assert threading.active_count() == before
    assert capfd.readouterr().err == ""


def test_mc_case_set_deterministic_and_gapped():
    cases = mc_case_set(count=50, seed=1)
    again = mc_case_set(count=50, seed=1)
    assert cases == again
    assert len(cases) == 50
    for case in cases:
        assert case.exact_integrable == exact_monomial_integrable(
            case.germ, case.nu, case.alpha)
        assert 0 < case.alpha < 1


def test_enumerated_spectrum_is_numerators_over_lcm():
    # the oracle's contract: a Counter of integer numerators over lcm(ms),
    # one count per interior tuple, equal to the Fraction brute force
    rng = random.Random(1985)
    cases = [(2,), (2, 3), (3, 3, 3), (2, 2, 2, 2)]
    cases += [tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 4))) for _ in range(20)]
    for ms in cases:
        denom = math.lcm(*ms)
        counter = oracles.enumerated_spectrum(ms)
        assert type(counter) is Counter and all(type(k) is int for k in counter), ms
        assert counter.total() == math.prod(m - 1 for m in ms)
        assert {F(k, denom): c for k, c in counter.items()} == bf_spectrum(ms), ms
