"""Acceptance gate: eight end-to-end checks, one test per criterion.

Each test prints a single PASS line on success; a failed assertion is the
FAIL signal.  Budgets are wall-clock on the full stated case ranges.
"""

import itertools
import time
from fractions import Fraction as F

from tsmult.convolution import (alpha_one_sequence_check, irrationality_dim,
                                ts_convolve_chains, ts_lct, ts_multiplier)
from tsmult.filtration import (j_lookup, jumpset_of, periodic_extend,
                               usual_jumpset, v_to_j)
from tsmult.germs import (Germ, diagonal_microlocal_chain, diagonal_usual_chain,
                          lct, milnor_number, one_var_microlocal_chain)
from tsmult.oracles import (MonteCarloConfig, mc_case_set, monte_carlo_integrable,
                            summation_path)
from tsmult.spectral import (fold_spectrum, one_var_eigentable, phi_convolve,
                             spectrum_of)

from bruteforce import bf_diagonal_gens, bf_weight_levels


def test_criterion_1_lct_addition():
    start = time.monotonic()
    checked = 0
    for d in (1, 2, 3, 4):
        for ms in itertools.product(range(2, 10), repeat=d):
            germ = Germ(ms)
            whole = lct(germ)
            assert whole == min(F(1), sum(F(1, m) for m in ms))
            for cut in range(1, d):
                left = lct(Germ(ms[:cut]))
                right = lct(Germ(ms[cut:]))
                assert ts_lct(left, right) == whole, (ms, cut)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"PASS criterion 1: lct addition on {checked} germs "
          f"({elapsed:.2f}s)")


def test_criterion_2_multiplier_vs_summation_oracle():
    start = time.monotonic()
    checked = 0
    for m1 in range(2, 8):
        chain1 = one_var_microlocal_chain(m1, window=F(1))
        for m2 in range(2, 8):
            chain2 = one_var_microlocal_chain(m2, window=F(1))
            den = m1 * m2
            for j in range(1, den):
                alpha = F(j, den)
                oracle = summation_path(m1, m2, alpha)  # two-route equality inside
                assert ts_multiplier(chain1, chain2, alpha) == oracle, (m1, m2, alpha)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"PASS criterion 2: convolution multiplier = Newton oracle = "
          f"summation route on {checked} cases ({elapsed:.2f}s)")


def test_criterion_3_chain_convolution_equals_direct():
    start = time.monotonic()
    window = F(3)
    checked = 0
    for d in (1, 2, 3):
        for ms in itertools.product(range(2, 10), repeat=d):
            direct = diagonal_microlocal_chain(Germ(ms), window=window)
            chain = one_var_microlocal_chain(ms[0], window=window)
            for m in ms[1:]:
                chain = ts_convolve_chains(chain,
                                           one_var_microlocal_chain(m, window=window))
            assert chain == direct, ms
            checked += 1
    # spot-check the equality is genuinely about public jump data too
    for ms in [(2, 3), (4, 7), (9, 9), (2, 3, 5)]:
        direct = diagonal_microlocal_chain(Germ(ms), window=window)
        chain = one_var_microlocal_chain(ms[0], window=window)
        for m in ms[1:]:
            chain = ts_convolve_chains(chain,
                                       one_var_microlocal_chain(m, window=window))
        assert chain.levels == direct.levels
        assert [s.ideal for s in chain.steps] == [s.ideal for s in direct.steps]
        assert chain.top == direct.top
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"PASS criterion 3: convolved chains equal direct chains for "
          f"{checked} exponent tuples, window 3 ({elapsed:.2f}s)")


def test_criterion_4_classical_goldens():
    cusp = Germ((2, 3))
    micro = jumpset_of(diagonal_microlocal_chain(cusp, window=F(1)))
    jumps = usual_jumpset(micro, F(3, 2))
    assert [v for v in jumps.values if v <= 1] == [F(5, 6), F(1)]
    j = v_to_j(diagonal_microlocal_chain(cusp, window=F(1)))
    assert j_lookup(j, F(5, 6)).gens == ((0, 1), (1, 0))
    assert spectrum_of(cusp).as_dict() == {F(5, 6): 1, F(7, 6): 1}

    node3 = Germ((2, 2, 2))
    assert spectrum_of(node3).as_dict() == {F(3, 2): 1}
    assert irrationality_dim(node3) == 0

    cone = Germ((3, 3, 3))
    assert irrationality_dim(cone) == 1
    assert spectrum_of(cone).total == 8
    assert min(v for v, _ in spectrum_of(cone).entries) == F(1)

    e8 = Germ((2, 3, 5))
    assert milnor_number(e8) == 8
    assert min(v for v, _ in spectrum_of(e8).entries) == F(31, 30)
    print("PASS criterion 4: classical germ goldens "
          "(cusp, A1, elliptic cone, (2,3,5))")


def test_criterion_5_eigentable_bookkeeping():
    checked = 0
    for m1 in range(2, 8):
        for m2 in range(2, 8):
            table = phi_convolve(one_var_eigentable(m1), one_var_eigentable(m2))
            assert table.total == (m1 - 1) * (m2 - 1)
            folded = fold_spectrum(spectrum_of(Germ((m1, m2))))
            assert table == folded, (m1, m2)
            checked += 1
    cusp_table = phi_convolve(one_var_eigentable(2), one_var_eigentable(3))
    assert cusp_table.as_dict() == {F(-5, 6): 1, F(-1, 6): 1}
    # the (-1/2) + (-2/3) pair leaves (-1, 0] and folds up by one
    assert F(-1, 2) + F(-2, 3) < -1
    assert F(-1, 2) + F(-2, 3) + 1 == F(-1, 6)
    print(f"PASS criterion 5: eigentable totals multiplicative and "
          f"fold-compatible on {checked} pairs; cusp fold branch verified")


def test_criterion_6_alpha_one_sequence():
    checked = 0
    for d1, d2 in [(1, 1), (1, 2), (2, 1)]:
        for ms1 in itertools.product(range(2, 6), repeat=d1):
            g1 = Germ(ms1, var_names=tuple(f"x{i}" for i in range(d1)))
            for ms2 in itertools.product(range(2, 6), repeat=d2):
                g2 = Germ(ms2, var_names=tuple(f"y{i}" for i in range(d2)))
                report = alpha_one_sequence_check(g1, g2)
                assert report.consistent, (ms1, ms2, report.to_json())
                assert report.g_tilde_dim == report.paired_g_tilde_dim
                assert report.irrationality_dim == (report.v_one_cokernel_dim
                                                    + report.g_tilde_dim)
                # a third route: the colength of the ideal just below 1 is the
                # number of spectral numbers < 1 (Budur 2003, Steenbrink 1977)
                whole = spectrum_of(Germ(ms1 + ms2))
                assert report.v_one_cokernel_dim == sum(
                    mult for value, mult in whole.entries if value < 1), (ms1, ms2)
                checked += 1
    print(f"PASS criterion 6: alpha = 1 sequence bookkeeping on "
          f"{checked} germ splits (all d <= 3, exponents in [2,5])")


def test_criterion_7_microlocal_usual_agreement_and_periodicity():
    checked = 0
    for d in (1, 2, 3):
        for ms in itertools.product(range(2, 6), repeat=d):
            # the usual chain reads the microlocal model; the brute force
            # scans the Newton weights (nu_j + 1)/m_j
            usual = diagonal_usual_chain(Germ(ms), window=F(1))
            levels = bf_weight_levels(ms, F(1), usual=True)
            assert list(usual.levels) == [s.level for s in usual.steps] == levels, ms
            for s in usual.steps:
                assert s.ideal.gens == tuple(
                    bf_diagonal_gens(ms, s.level, strict=True, usual=True)), (ms, s.level)
            den = 1
            for m in ms:
                den *= m
            for j in range(0, den):
                alpha = F(j, den)
                base = periodic_extend(usual, alpha)
                shifted = periodic_extend(usual, alpha + 1)
                assert shifted.power == base.power + 1, (ms, alpha)
                assert shifted.ideal == base.ideal, (ms, alpha)
            checked += 1
    print(f"PASS criterion 7: microlocal chains = Newton-weight multiplier ideals "
          f"on [0,1) and shift periodicity for {checked} germs")


def test_criterion_8_monte_carlo_agreement():
    start = time.monotonic()
    cases = mc_case_set(count=200, seed=1)
    config = MonteCarloConfig()  # default config, fixed seed
    agree = 0
    for case in cases:
        evidence = monte_carlo_integrable(case.germ, case.nu, case.alpha, config)
        want = "Integrable" if case.exact_integrable else "Divergent"
        agree += evidence["verdict"] == want
    elapsed = time.monotonic() - start
    rate = agree / len(cases)
    assert rate >= 0.95, f"agreement {rate:.3f} below 0.95"
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"PASS criterion 8: Monte Carlo agreement {agree}/{len(cases)} "
          f"= {rate:.3f} ({elapsed:.1f}s)")
