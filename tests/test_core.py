import math
from fractions import Fraction

import numpy as np
import pytest

from fujitalab.core import (ProblemParams, Verdict, classify_inhomogeneous,
                            classify_mean_nonneg, classify_positive,
                            critical_exponents)


def test_exponents_n1():
    crit = critical_exponents(1)
    assert crit.p_fujita == 3.0
    assert crit.q_fujita == 1.5
    assert crit.p_star is None
    assert crit.q_star is None


def test_exponents_n2_infinity_convention():
    crit = critical_exponents(2)
    assert math.isinf(crit.p_star)
    assert crit.p_star > 1e300  # compares above every finite real
    assert crit.q_star == 2.0


def test_exponents_n3():
    crit = critical_exponents(3)
    assert crit.p_fujita == pytest.approx(5 / 3, rel=1e-15)
    assert crit.q_fujita == pytest.approx(5 / 4, rel=1e-15)
    assert crit.p_star == pytest.approx(3.0, rel=1e-15)
    assert crit.q_star == pytest.approx(1.5, rel=1e-15)
    assert crit.q_one_of_p(4.0) == pytest.approx(1 + 1 / 11, rel=1e-15)


def test_exponents_reject_bad_dimension():
    with pytest.raises(ValueError):
        critical_exponents(0)
    with pytest.raises(ValueError):
        critical_exponents(-2)


def test_exponents_are_exact_rationals():
    for n in range(1, 344):
        crit = critical_exponents(n)
        assert crit.p_fujita == 1 + Fraction(2, n)
        assert crit.q_fujita == 1 + Fraction(1, n + 1)
        if n == 1:
            assert crit.p_star is None and crit.q_star is None
        else:
            assert crit.p_star == (math.inf if n == 2 else Fraction(n, n - 2))
            assert crit.q_star == Fraction(n, n - 1)
        for p in (4.0, 1.1, Fraction(7, 3)):
            assert crit.q_one_of_p(p) == 1 + 1 / (n * Fraction(p) - 1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("field", ["p", "q", "b"])
def test_problem_params_refuse_a_non_finite_parameter(field, value):
    kwargs = {"n": 1, "p": 4, "q": 2, "b": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ProblemParams(**kwargs)


def test_problem_params_accept_ints_and_fractions_of_any_size():
    params = ProblemParams(n=1, p=10 ** 400, q=Fraction(10 ** 400, 3), b=10 ** 400)
    assert classify_positive(params).verdict is Verdict.GLOBAL_FOR_SMALL_DATA
    assert classify_mean_nonneg(params).verdict is Verdict.INCONCLUSIVE


def test_classify_positive_examples():
    v = classify_positive(ProblemParams(n=1, p=2, q=2))
    assert v.verdict is Verdict.BLOW_UP_ALL
    assert "p <= p_F" in v.triggered_condition

    v = classify_positive(ProblemParams(n=2, p=3, q=1.2))
    assert v.verdict is Verdict.BLOW_UP_ALL
    assert "q <= 1 + 1/(n+1)" in v.triggered_condition

    v = classify_positive(ProblemParams(n=1, p=4, q=2))
    assert v.verdict is Verdict.GLOBAL_FOR_SMALL_DATA


def test_classify_positive_closed_boundary():
    # equality p = p_F stays in the blow-up region (closed condition)
    v = classify_positive(ProblemParams(n=3, p=Fraction(5, 3), q=2))
    assert v.verdict is Verdict.BLOW_UP_ALL
    v = classify_positive(ProblemParams(n=1, p=4, q=Fraction(3, 2)))
    assert v.verdict is Verdict.BLOW_UP_ALL


def test_classify_mean_nonneg_examples():
    # equality case (q-1)(np-1) = 1, exact rational
    v = classify_mean_nonneg(ProblemParams(n=1, p=4, q=Fraction(4, 3)))
    assert v.verdict is Verdict.BLOW_UP_ALL
    assert "(q-1)(np-1) <= 1" in v.triggered_condition

    v = classify_mean_nonneg(ProblemParams(n=1, p=4, q=1.4))
    assert v.verdict is Verdict.INCONCLUSIVE
    assert "open question" in v.triggered_condition

    v = classify_mean_nonneg(ProblemParams(n=1, p=2, q=3))
    assert v.verdict is Verdict.BLOW_UP_ALL
    assert "p <= p_F" in v.triggered_condition


def test_classify_mean_nonneg_asserted_positive_data():
    # nonnegative data is classify_positive's; the sign-changing gap stays open
    v = classify_mean_nonneg(ProblemParams(n=1, p=4, q=2))
    assert v.verdict is Verdict.INCONCLUSIVE
    v = classify_positive(ProblemParams(n=1, p=4, q=Fraction(7, 5)))
    assert v.verdict is Verdict.BLOW_UP_ALL
    v = classify_positive(ProblemParams(n=1, p=4, q=2))
    assert v.verdict is Verdict.GLOBAL_FOR_SMALL_DATA
    with pytest.raises(TypeError):  # no flag turns the gap into a positive-data verdict
        classify_mean_nonneg(ProblemParams(n=1, p=4, q=Fraction(7, 5)),
                             assume_nonnegative=True)


def test_mean_nonneg_blowup_implies_positive_blowup():
    # nonnegative data has nonnegative mean, so every BlowUpAll of the
    # nonnegative-mean result is one of the positive-data result too
    # (1 + 1/(np-1) < q_F once p > p_F); checked on an exact lattice that
    # straddles p_F, q_F and 1 + 1/(np-1)
    d = Fraction(1, 1000)
    for n in range(1, 7):
        crit = critical_exponents(n)
        for p in (crit.p_fujita - Fraction(1, 5), crit.p_fujita - d, crit.p_fujita,
                  crit.p_fujita + d, crit.p_fujita + Fraction(1, 5), crit.p_fujita + 3):
            qs = [crit.q_fujita + s for s in (-d, 0, d)] + [Fraction(3)]
            if n * p > 1:
                qs += [crit.q_one_of_p(p) + s for s in (-d, 0, d)]
            for q in (q for q in qs if q > 1):
                params = ProblemParams(n=n, p=p, q=q)
                if classify_mean_nonneg(params).verdict is Verdict.BLOW_UP_ALL:
                    assert classify_positive(params).verdict is Verdict.BLOW_UP_ALL, (n, p, q)


def test_classify_inhomogeneous_examples():
    v = classify_inhomogeneous(ProblemParams(n=3, p=2, q=2), positive_mass_forcing=True)
    assert v.verdict is Verdict.BLOW_UP_ALL

    v = classify_inhomogeneous(ProblemParams(n=3, p=4, q=2))
    assert v.verdict is Verdict.GLOBAL_FOR_SMALL_DATA

    # equality p = n/(n-2) is not covered (open condition)
    v = classify_inhomogeneous(ProblemParams(n=3, p=Fraction(3), q=2),
                               positive_mass_forcing=True)
    assert v.verdict is Verdict.INCONCLUSIVE


def test_classify_inhomogeneous_needs_n_at_least_2():
    with pytest.raises(ValueError):
        classify_inhomogeneous(ProblemParams(n=1, p=2, q=2))


def test_classify_inhomogeneous_n2_global_branch_inconclusive():
    # p < p* = infinity always holds for n = 2, so with the mass flag the
    # blow-up branch fires for any p; without it nothing is claimed
    v = classify_inhomogeneous(ProblemParams(n=2, p=50, q=3), positive_mass_forcing=True)
    assert v.verdict is Verdict.BLOW_UP_ALL
    v = classify_inhomogeneous(ProblemParams(n=2, p=50, q=3))
    assert v.verdict is Verdict.INCONCLUSIVE


def test_theorem_regime_requires_positive_b():
    with pytest.raises(ValueError):
        classify_positive(ProblemParams(n=1, p=2, q=2, b=0.0))


def test_gap_threshold_below_gradient_threshold():
    # 1 + 1/(np-1) < 1 + 1/(n+1) whenever p > p_F, over a sampled grid
    for n in range(1, 7):
        crit = critical_exponents(n)
        for p in np.linspace(crit.p_fujita + 1e-9, crit.p_fujita + 10, 200):
            assert crit.q_one_of_p(p) < crit.q_fujita


def test_classifier_monotonicity():
    rng = np.random.default_rng(42)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        p = 1.0 + rng.uniform(1e-3, 6.0)
        q = 1.0 + rng.uniform(1e-3, 2.0)
        v = classify_positive(ProblemParams(n=n, p=p, q=q))
        if v.verdict is Verdict.BLOW_UP_ALL:
            p2 = 1.0 + (p - 1.0) * rng.uniform(0.1, 1.0)
            q2 = 1.0 + (q - 1.0) * rng.uniform(0.1, 1.0)
            v2 = classify_positive(ProblemParams(n=n, p=p2, q=q2))
            assert v2.verdict is Verdict.BLOW_UP_ALL


def test_classifiers_agree_with_raw_inequalities():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        p = 1.0 + rng.uniform(1e-6, 8.0)
        q = 1.0 + rng.uniform(1e-6, 3.0)
        params = ProblemParams(n=n, p=p, q=q)
        v = classify_positive(params)
        expect_blowup = (p <= 1 + 2 / n) or (q <= 1 + 1 / (n + 1))
        assert (v.verdict is Verdict.BLOW_UP_ALL) == expect_blowup

        if n >= 2 and q > 1:
            vi = classify_inhomogeneous(params, positive_mass_forcing=True)
            p_star = math.inf if n == 2 else n / (n - 2)
            raw_blowup = (p < p_star) or (q < n / (n - 1))
            assert (vi.verdict is Verdict.BLOW_UP_ALL) == raw_blowup
