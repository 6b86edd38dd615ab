"""Problem parameters, critical-exponent arithmetic and regime classification.

The classifiers encode the exact inequality closures of the underlying
theory: the positive-data and nonnegative-mean blow-up conditions are
closed (``<=``), the forced-problem blow-up condition is open (``<``).
Comparisons are done in exact rational arithmetic (floats are taken at
their exact binary value, and callers probing a boundary can pass
``fractions.Fraction``), so no epsilon ever reclassifies a critical case.
The thresholds are read from one exact source, ``critical_exponents``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

Real = Union[int, float, Fraction]


@dataclass(frozen=True)
class ProblemParams:
    """Instance of the reaction-diffusion problem u_t - Lap u = |u|^p + b|grad u|^q (+ h).

    ``use_source`` / ``use_gradient`` toggle the two nonlinear terms, so the
    same instance describes the pure-source problem (b=0 analogue) and the
    pure gradient (viscous Hamilton-Jacobi) problem.
    """

    n: int
    p: Real
    q: Real
    b: Real = 1.0
    use_source: bool = True
    use_gradient: bool = True

    def __post_init__(self) -> None:
        _require_dimension(self.n)
        for name in ("p", "q", "b"):  # an int or a Fraction is finite at any size
            value = getattr(self, name)
            if not isinstance(value, (int, Fraction)) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.p > 1:
            raise ValueError(f"source exponent p must satisfy p > 1, got {self.p!r}")
        if not self.q >= 1:
            raise ValueError(f"gradient exponent q must satisfy q >= 1, got {self.q!r}")
        if self.b < 0:
            raise ValueError(f"gradient coefficient b must be >= 0, got {self.b!r}")


class Verdict(Enum):
    BLOW_UP_ALL = "BlowUpAll"
    GLOBAL_FOR_SMALL_DATA = "GlobalForSmallData"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RegimeVerdict:
    verdict: Verdict
    triggered_condition: str
    theorem_tag: str


@dataclass(frozen=True)
class CriticalExponents:
    """The critical curves attached to dimension n, as exact rationals.

    The classifiers, both certificates and ``fujitalab table`` read them.
    ``p_star``/``q_star`` are the thresholds of the forced (inhomogeneous)
    problem; they are undefined for n = 1 (``None``), and for n = 2 the
    convention p_star = infinity is used (compares greater than every
    finite real).
    """

    n: int
    p_fujita: Fraction                    # 1 + 2/n
    q_fujita: Fraction                    # 1 + 1/(n+1)
    p_star: Union[Fraction, float, None]  # n/(n-2); inf for n = 2; None for n = 1
    q_star: Optional[Fraction]            # n/(n-1); None for n = 1

    def q_one_of_p(self, p: Real) -> Fraction:
        """Gradient-exponent threshold 1 + 1/(np - 1) of the nonnegative-mean
        result, exact at the binary value of p (needs np > 1)."""
        return 1 + 1 / (self.n * Fraction(p) - 1)


def _require_dimension(n: int) -> None:
    """The dimension rule of the problem, its critical exponents and its grid
    (a bool is not an integer here)."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension n must be an integer >= 1, got {n!r}")


def critical_exponents(n: int) -> CriticalExponents:
    _require_dimension(n)
    return CriticalExponents(
        n=n, p_fujita=1 + Fraction(2, n), q_fujita=1 + Fraction(1, n + 1),
        p_star=None if n == 1 else math.inf if n == 2 else Fraction(n, n - 2),
        q_star=None if n == 1 else Fraction(n, n - 1))


def _require_theorem_regime(params: ProblemParams) -> None:
    if not params.b > 0:
        raise ValueError("theorem-regime classification requires b > 0")


def classify_positive(params: ProblemParams) -> RegimeVerdict:
    """Regime of positive solutions (u0 >= 0, u0 not identically 0).

    BlowUpAll iff p <= 1 + 2/n or q <= 1 + 1/(n+1) (both closures closed);
    otherwise every sufficiently small positive datum yields a global
    solution.
    """
    _require_theorem_regime(params)
    crit = critical_exponents(params.n)
    p, q = Fraction(params.p), Fraction(params.q)
    if p <= crit.p_fujita:
        return RegimeVerdict(Verdict.BLOW_UP_ALL, "p <= p_F = 1 + 2/n",
                             "positive-data blow-up (source branch)")
    if q <= crit.q_fujita:
        return RegimeVerdict(Verdict.BLOW_UP_ALL, "q <= 1 + 1/(n+1)",
                             "positive-data blow-up (gradient branch)")
    return RegimeVerdict(Verdict.GLOBAL_FOR_SMALL_DATA,
                         "p > p_F and q > 1 + 1/(n+1)",
                         "positive-data global existence for small data")


def classify_mean_nonneg(params: ProblemParams) -> RegimeVerdict:
    """Regime of possibly sign-changing solutions with nonnegative initial mean.

    BlowUpAll iff p <= 1 + 2/n or (q-1)(np-1) <= 1.  Outside that region
    the theory leaves a genuine gap for sign-changing data, and the verdict
    is Inconclusive.  Nonnegative data is ``classify_positive``'s.
    """
    _require_theorem_regime(params)
    if not params.q > 1:
        raise ValueError("nonnegative-mean classification requires q > 1")
    crit = critical_exponents(params.n)
    p, q = Fraction(params.p), Fraction(params.q)
    if p <= crit.p_fujita:
        return RegimeVerdict(Verdict.BLOW_UP_ALL, "p <= p_F = 1 + 2/n",
                             "nonnegative-mean blow-up (source branch)")
    # p > p_F here, so np - 1 > 0 and this is exactly (q-1)(np-1) <= 1
    if q <= crit.q_one_of_p(p):
        return RegimeVerdict(Verdict.BLOW_UP_ALL, "(q-1)(np-1) <= 1",
                             "nonnegative-mean blow-up (gradient branch)")
    if q <= crit.q_fujita:
        cond = ("open question: q in (1 + 1/(np-1), 1 + 1/(n+1)] with p > p_F "
                "is not covered for sign-changing data of nonnegative mean")
    else:
        cond = ("p > p_F and q > 1 + 1/(n+1): small-data global existence is "
                "only known for nonnegative data")
    return RegimeVerdict(Verdict.INCONCLUSIVE, cond, "uncovered sign-changing regime")


def classify_inhomogeneous(params: ProblemParams,
                           positive_mass_forcing: bool = False) -> RegimeVerdict:
    """Regime of the forced problem u_t - Lap u = |u|^p + b|grad u|^q + h.

    The blow-up branch (strict inequalities p < n/(n-2) or q < n/(n-1))
    additionally presumes a forcing of positive mass, which the caller
    asserts via ``positive_mass_forcing``.  Equality boundaries are not
    covered and return Inconclusive.  For n = 2 the convention
    n/(n-2) = infinity applies, and the global branch is left Inconclusive.
    """
    _require_theorem_regime(params)
    if params.n < 2:
        raise ValueError("inhomogeneous classification requires n >= 2")
    if not params.q > 1:
        raise ValueError("inhomogeneous classification requires q > 1")
    crit = critical_exponents(params.n)
    p, q = Fraction(params.p), Fraction(params.q)
    p_star, q_star = crit.p_star, crit.q_star
    if positive_mass_forcing:
        if p < p_star:
            return RegimeVerdict(Verdict.BLOW_UP_ALL, "p < n/(n-2) with forcing of positive mass",
                                 "forced blow-up (source branch)")
        if q < q_star:
            return RegimeVerdict(Verdict.BLOW_UP_ALL, "q < n/(n-1) with forcing of positive mass",
                                 "forced blow-up (gradient branch)")
    if params.n >= 3 and p > p_star and q > q_star:
        return RegimeVerdict(Verdict.GLOBAL_FOR_SMALL_DATA,
                             "n >= 3, p > n/(n-2) and q > n/(n-1)",
                             "forced global existence for a constructed forcing")
    if not positive_mass_forcing and (p < p_star or q < q_star):
        cond = "blow-up branch needs a forcing of positive mass (flag not asserted)"
    else:
        cond = "equality boundary p = n/(n-2) or q = n/(n-1) (or n = 2 global branch) not covered"
    return RegimeVerdict(Verdict.INCONCLUSIVE, cond, "uncovered forced regime")
