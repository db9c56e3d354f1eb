"""Closed-form calculators for the non-asymptotic constants.

Every function here is a pure evaluation of a printed formula: Khintchine
moment constants, the auxiliary tail shapes h0/h1, the uniform-regime and
decreasing-regime deviation constants (r1*..r4*, rt1..rt5 and the u
sequences), admissible mixing levels for both regimes, MCMC iteration
tuning, the critical constant-step temperature increment, and the
Boltzmann-Gibbs tail bound.  Repeated calls are bit-identical; factorials
are evaluated in log space so the moment constants stay usable for large
orders.

:func:`deviation_thresholds` is the one place that picks a regime's
formulas for the occupation-deviation and mass-ratio thresholds; the
classic bound checks and the annealing optimizer both read it.

It also holds the one record every verifier emits: a :class:`CheckRow`
compares an estimate with its bound, and :class:`CheckRow.compare` is where
pass or fail is decided; :class:`CheckRow.exceedance` is the one place an
exceedance frequency meets its level and Monte Carlo allowance.  A
:class:`VerifyReport` collects the rows and writes ``verify.csv``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import BudgetExceededError, InputError

# Truncation gate for geometric tail sums: terms with a^p below this are
# dropped; the truncation error is itself geometric, at most
# g_max^(2(1+alpha)) * 1e-16 / (1-a).
_GEOM_TRUNC = 1e-16

_MAX_ITER_BUDGET = 2.0**63


@dataclass(frozen=True)
class CheckRow:
    """One checked estimate: ``lhs`` (an exact quantity, an empirical L2
    level or an exceedance frequency) against ``rhs`` (its bound, with any
    Monte Carlo allowance folded in)."""

    name: str
    scope: str       # e.g. "n=3,y=2" or "all"
    lhs: float
    rhs: float
    status: str      # "pass" | "fail" | "hypothesis-unmet"

    @classmethod
    def compare(cls, name: str, scope: str, lhs: float, rhs: float) -> "CheckRow":
        """The row of a comparison: ``"pass"`` exactly when ``lhs <= rhs``."""
        return cls(name, scope, lhs, rhs, "pass" if lhs <= rhs else "fail")

    @classmethod
    def exceedance(cls, name: str, scope: str, exceeds, level: float) -> "CheckRow":
        """The frequency of the per-replicate boolean array ``exceeds`` against
        ``level + 3 sqrt(b (1 - b) / R)``, b = level clamped to [0, 1]."""
        r = len(exceeds)
        b = min(max(level, 0.0), 1.0)
        return cls.compare(
            name, scope, int(exceeds.sum()) / r, level + 3.0 * math.sqrt(b * (1.0 - b) / r)
        )

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class VerifyReport:
    """The rows of a verification suite.  A hypothesis preamble that refuses
    the comparisons writes a ``"hypothesis-unmet"`` row, so a failed row is
    a failure, never a refusal."""

    rows: tuple

    def failures(self):
        return [r for r in self.rows if r.status == "fail"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "scope", "lhs", "rhs", "margin", "status"])
        for r in self.rows:
            cells = (format(float(x), ".17g") for x in (r.lhs, r.rhs, r.margin))
            writer.writerow([r.name, r.scope, *cells, r.status])
        return buf.getvalue()


def bp_constant(p: int) -> float:
    """Khintchine-type moment constant of order p.

    Even orders:  B_{2q}^{2q}   = (2q)! / (2^q q!)
    Odd orders:   B_{2q+1}^{2q+1} = (2q+1)! / (2^q q! sqrt(2q+1))
    """
    if p < 1:
        raise InputError("moment order must be >= 1")
    if p % 2 == 0:
        q = p // 2
        log_val = math.lgamma(2 * q + 1) - q * math.log(2.0) - math.lgamma(q + 1)
    else:
        q = (p - 1) // 2
        log_val = (
            math.lgamma(2 * q + 2)
            - q * math.log(2.0)
            - math.lgamma(q + 1)
            - 0.5 * math.log(2 * q + 1)
        )
    return math.exp(log_val / p)


def h0(x: float) -> float:
    """Tail shape ``2 (x + sqrt(x))``; monotone increasing on [0, inf)."""
    if x < 0:
        raise InputError("h0 argument must be >= 0")
    return 2.0 * (x + math.sqrt(x))


def h1(x: float) -> float:
    """Tail shape ``x/3 + sqrt(2 x)``; monotone increasing on [0, inf)."""
    if x < 0:
        raise InputError("h1 argument must be >= 0")
    return x / 3.0 + math.sqrt(2.0 * x)


def _sqrt_tail(a: float, u1: float, n_particles: float) -> float:
    return math.sqrt(8.0 / math.sqrt(1.0 - a * a) + 18.0 * u1 / math.sqrt(n_particles))


def _uniform_hypothesis(a: float, g_sup: float) -> None:
    """Refuse a performance degree ``a`` outside (0, 1) or a potential-ratio
    cap ``g_sup`` below 1."""
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    if g_sup < 1.0:
        raise InputError("potential-ratio bound must be >= 1")


def r_star_bounded(a: float, g_sup: float, n_particles: float):
    """Uniform-regime deviation constants (r1*, r2*), at performance degree
    ``a``, potential-ratio cap g = ``g_sup`` and population size N:

        r1* = (9/2) (g+a)^2/(1-a) + sqrt(8/sqrt(1-a^2) + 18 (g+a)^2/sqrt(N))
        r2* =  18   (g+a)^2/(1-a) + sqrt(8/sqrt(1-a^2) + 18 (g+a)^2/sqrt(N))
    """
    _uniform_hypothesis(a, g_sup)
    if n_particles < 1:
        raise InputError("population size must be >= 1")
    sq = (g_sup + a) ** 2
    tail = _sqrt_tail(a, sq, n_particles)
    return 4.5 * sq / (1.0 - a) + tail, 18.0 * sq / (1.0 - a) + tail


def r_tilde_bounded(a: float, g_sup: float):
    """Uniform-regime mass-ratio constants (rt1, rt2), with g = ``g_sup``:

        rt1 = 8 g (g+a)^2 / (1-a)        rt2 = 4 g / (1-a)
    """
    _uniform_hypothesis(a, g_sup)
    return 8.0 * g_sup * (g_sup + a) ** 2 / (1.0 - a), 4.0 * g_sup / (1.0 - a)


def ratio_rises(g: Sequence[float]) -> list:
    """The steps p >= 2 whose ratio g_p rises above g_(p-1) by more than
    1e-15, for the schedule g_1, g_2, ...; the decreasing regime needs none."""
    return [p for p in range(2, len(g) + 1) if g[p - 1] > g[p - 2] + 1e-15]


def _validate_schedule(g_schedule: Sequence[float]):
    g = [float(x) for x in g_schedule]
    if not g:
        raise InputError("potential-ratio schedule must be non-empty")
    if any(x < 1.0 for x in g):
        raise InputError("potential ratios must be >= 1")
    if ratio_rises(g):
        raise InputError("potential-ratio schedule must be non-increasing")
    return g


def _g_at(g: list, k: int) -> float:
    """Schedule lookup with index clamping: g_k = g_1 for k < 1 and
    g_k = g_last beyond the provided horizon (conservative for decreasing
    schedules)."""
    return g[min(max(k, 1), len(g)) - 1]


def u_sequences(g_schedule: Sequence[float], a: float, n: int):
    """The three normalizing sequences of the decreasing regime at time n.

    With alpha = a/(1-a):

        u1(n) = (1-a) sum_{p>=0} g_{n-p+1}^{2(1+alpha)} a^p
                (truncated once a^p < 1e-16; geometric truncation error)
        u2(n) = (1/n) sum_{p=1..n} g_p^{3+2 alpha}
        u3(n) = sqrt( (1/n) sum_{p=0..n-1} g_{p+1}^2 )
    """
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    if n < 1:
        raise InputError("time index must be >= 1")
    g = _validate_schedule(g_schedule)
    alpha = a / (1.0 - a)
    u1 = 0.0
    p = 0
    weight = 1.0
    while weight >= _GEOM_TRUNC:
        u1 += _g_at(g, n - p + 1) ** (2.0 * (1.0 + alpha)) * weight
        p += 1
        weight *= a
    u1 *= 1.0 - a
    u2 = sum(_g_at(g, k) ** (3.0 + 2.0 * alpha) for k in range(1, n + 1)) / n
    u3 = math.sqrt(sum(_g_at(g, k + 1) ** 2 for k in range(n)) / n)
    return u1, u2, u3


def r_star_decreasing(g_schedule: Sequence[float], a: float, n_particles: float, n: int):
    """Decreasing-regime deviation constants (r3*(n), r4*(n)), built from the
    first of the :func:`u_sequences`:

        r3*(n) = 9 u1(n) / (2 (1-a)) + sqrt(8/sqrt(1-a^2) + 18 u1(n)/sqrt(N))
        r4*(n) = 18 u1(n) / (1-a)    + sqrt(8/sqrt(1-a^2) + 18 u1(n)/sqrt(N))
    """
    if n_particles < 1:
        raise InputError("population size must be >= 1")
    u1 = u_sequences(g_schedule, a, n)[0]
    tail = _sqrt_tail(a, u1, n_particles)
    return 9.0 * u1 / (2.0 * (1.0 - a)) + tail, 18.0 * u1 / (1.0 - a) + tail


def r_tilde_decreasing(g_schedule: Sequence[float], a: float, n: int):
    """Decreasing-regime mass-ratio constants:

        rt3(n) = 16 u2(n) / (1-a)
        rt4    = (4/3) sum_{k>=0} g_{k+1} a^k     (truncated geometrically)
        rt5(n) = 4 sqrt(2) u3(n) / (1-a)
    """
    u1, u2, u3 = u_sequences(g_schedule, a, n)
    g = _validate_schedule(g_schedule)
    rt4 = 0.0
    k = 0
    weight = 1.0
    while weight >= _GEOM_TRUNC:
        rt4 += _g_at(g, k + 1) * weight
        k += 1
        weight *= a
    rt4 *= 4.0 / 3.0
    return 16.0 * u2 / (1.0 - a), rt4, 4.0 * math.sqrt(2.0) * u3 / (1.0 - a)


def condition_bounded(g_sup: float, a: float) -> float:
    """Admissible mixing level for the uniform regime: ``a / (a + g_sup)``."""
    _uniform_hypothesis(a, g_sup)
    return a / (a + g_sup)


def condition_decreasing(g_p: float, a: float) -> float:
    """Admissible mixing level for the decreasing regime, the smaller of

        (g^alpha - 1) / (g^(alpha+1) - 1)      and      a / g^(alpha+1)

    with alpha = a/(1-a).  Both expressions tend to ``a`` as g -> 1; at
    g = 1 that limit, ``a`` itself, is returned instead of a 0/0 NaN.
    """
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    if g_p < 1.0:
        raise InputError("potential ratio must be >= 1")
    alpha = a / (1.0 - a)
    if g_p == 1.0:
        return a
    log_g = math.log(g_p)
    try:
        first = math.expm1(alpha * log_g) / math.expm1((alpha + 1.0) * log_g)
        second = a / g_p ** (alpha + 1.0)
    except OverflowError:
        # g^(alpha+1) past float64: both ratios divided through by it, so
        # a / g^(alpha+1) underflows toward its limit 0
        first = math.exp(-log_g) * math.expm1(-alpha * log_g) / math.expm1(-(alpha + 1.0) * log_g)
        second = a * math.exp(-(alpha + 1.0) * log_g)
    return min(first, second)


def tune_mcmc_iters(
    beta_p: float,
    minorization_delta: float,
    gap_k0: float,
    a: float,
    mode: str,
    *,
    increment_osc: float | None = None,
) -> int:
    """Smallest admissible MCMC iteration count at inverse temperature beta_p.

    ``gap_k0`` is the worst-case potential climb over one minorization block
    of proposal moves; it multiplies beta_p in the exponent.  The increment
    is passed pre-multiplied by osc(V), as ``increment_osc``:

    * bounded mode (Delta * osc(V), with Delta the cap on the increments, so
      the cap on log potential spread per step):

          m_p = ceil( log((e^{increment_osc} + a)/a) * e^{gap_k0 beta_p} / delta )

    * decreasing mode (Delta_p * osc(V), with Delta_p this step's increment):

          m_p = ceil( (increment_osc + log(1/a)) * e^{gap_k0 beta_p} / delta )

    Raises :class:`BudgetExceededError` (carrying the unrounded value) when
    the count exceeds 2^63.
    """
    if not 0.0 < minorization_delta <= 1.0:
        raise InputError("minorization mass must lie in (0, 1]")
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    if beta_p < 0 or gap_k0 < 0:
        raise InputError("inverse temperature and gap must be >= 0")
    if mode not in ("bounded", "decreasing"):
        raise InputError("mode must be 'bounded' or 'decreasing'")
    if increment_osc is None or increment_osc < 0:
        raise InputError(f"{mode} mode needs increment_osc >= 0")
    if mode == "decreasing":
        raw = increment_osc + math.log(1.0 / a)
    elif increment_osc < 700.0:
        raw = math.log((math.exp(increment_osc) + a) / a)
    else:   # the same log, without an e^x that overflows
        raw = increment_osc + math.log1p(a * math.exp(-increment_osc)) - math.log(a)
    try:
        raw *= math.exp(gap_k0 * beta_p) / minorization_delta
    except OverflowError:   # raw > 0, so past float64 is past the budget
        raw = math.inf
    if raw > _MAX_ITER_BUDGET:
        raise BudgetExceededError(raw, f"beta_p={beta_p}")
    return max(1, math.ceil(raw))


def critical_delta_beta(a: float, osc_v: float, gap_k0: float) -> float:
    """Constant-step increment above which stabilizing MCMC work dominates:

        sqrt( log(1/a) / (osc(V) * gap_k0) )
    """
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    if osc_v <= 0 or gap_k0 <= 0:
        raise InputError("oscillation and gap must be > 0")
    return math.sqrt(math.log(1.0 / a) / (osc_v * gap_k0))


def gibbs_tail_bound(beta: float, eps: float, eps_prime: float, m_eps_prime: float) -> float:
    """Tail mass bound ``exp(-beta (eps - eps')) / m(V <= V_min + eps')``."""
    if not 0.0 < eps_prime < eps:
        raise InputError("thresholds must satisfy 0 < eps' < eps")
    if m_eps_prime <= 0:
        raise InputError("reference sub-level mass must be > 0")
    if beta < 0:
        raise InputError("inverse temperature must be >= 0")
    return math.exp(-beta * (eps - eps_prime)) / m_eps_prime


def eta_deviation_threshold(r_i: float, r_j: float, n_particles: float, y: float) -> float:
    """Occupation-measure deviation threshold ``(r_i N + r_j y) / N^2``."""
    n = float(n_particles)
    return (r_i * n + r_j * y) / (n * n)


def gamma_log_ratio_threshold_bounded(
    rt1: float, rt2: float, n: int, n_particles: float, y: float
) -> float:
    """Uniform-regime threshold on ``(1/n) |log mass ratio|``:

        rt1/N * h0(y) + rt2 * h1(y / (n N))
    """
    if n < 1:
        raise InputError("time index must be >= 1")
    return rt1 / n_particles * h0(y) + rt2 * h1(y / (n * n_particles))


def gamma_log_ratio_threshold_decreasing(
    rt3: float, rt4: float, rt5: float, n: int, n_particles: float, y: float
) -> float:
    """Decreasing-regime threshold on ``(1/n) |log mass ratio|``:

        rt3 (y + sqrt(y))/N + rt4 y/(n N) + rt5 sqrt(y/(n N))
    """
    if n < 1:
        raise InputError("time index must be >= 1")
    nn = float(n_particles)
    return rt3 * (y + math.sqrt(y)) / nn + rt4 * y / (n * nn) + rt5 * math.sqrt(y / (n * nn))


def deviation_thresholds(regime: str, a: float, g, n_particles: float, n: int, y: float):
    """The (occupation-deviation, log-mass-ratio) thresholds of a regime at
    time n >= 1, each exceeded with probability at most ``exp(-y)``: from
    (r1*, r2*) and (rt1, rt2) at the cap ``g`` = g_sup in the ``"bounded"``
    (uniform) regime, from (r3*(n), r4*(n)) and (rt3, rt4, rt5) over the
    step ratios ``g`` = g_1, g_2, ... in the ``"decreasing"`` one."""
    if regime == "bounded":
        r_i, r_j = r_star_bounded(a, g, n_particles)
        mass = gamma_log_ratio_threshold_bounded(*r_tilde_bounded(a, g), n, n_particles, y)
    elif regime == "decreasing":
        r_i, r_j = r_star_decreasing(g, a, n_particles, n)
        mass = gamma_log_ratio_threshold_decreasing(
            *r_tilde_decreasing(g, a, n), n, n_particles, y
        )
    else:
        raise InputError("regime must be 'bounded' or 'decreasing'")
    return eta_deviation_threshold(r_i, r_j, n_particles, y), mass


def raw_eta_tail_level(
    r_n: float, beta_bar_sq: float, b_star: float, n_particles: float, eps: float
) -> float:
    """Tail level of the raw deviation inequality at threshold
    ``r_n / N + eps``:

        exp( - N eps^2 / (2 [b* sqrt(beta_bar^2) + sqrt(2) r_n / sqrt(N)
                             + eps (2 r_n + b*/3)]) )
    """
    if eps < 0:
        raise InputError("deviation level must be >= 0")
    n = float(n_particles)
    denom = (
        b_star * math.sqrt(beta_bar_sq)
        + math.sqrt(2.0) * r_n / math.sqrt(n)
        + eps * (2.0 * r_n + b_star / 3.0)
    )
    if denom <= 0:
        return 0.0 if eps > 0 else 1.0
    return math.exp(-n * eps * eps / (2.0 * denom))


def raw_gamma_threshold(
    r_bar: float, tau_star: float, sigma_bar_sq: float, n_particles: float, y: float
) -> float:
    """Raw mass-ratio threshold ``r_bar/N h0(y) + tau* sigma^2 h1(y/(N sigma^2))``
    whose exceedance level is ``exp(-y)``."""
    n = float(n_particles)
    if sigma_bar_sq <= 0:
        return r_bar / n * h0(y)
    return r_bar / n * h0(y) + tau_star * sigma_bar_sq * h1(y / (n * sigma_bar_sq))


def lp_uniform_bound(p: int, a: float, n_particles: float) -> float:
    """Uniform-in-time L^p error level ``B_p / (2 (1-a) sqrt(N))``."""
    if not 0.0 < a < 1.0:
        raise InputError("performance degree a must lie in (0, 1)")
    return bp_constant(p) / (2.0 * (1.0 - a) * math.sqrt(n_particles))


def adaptive_tail_bound(s: float, n_particles: float, a: float) -> float:
    """Adaptive-regime tail bound at deviation level s:

        sqrt(e) (1-a) * (sqrt(N) s) * exp(-(1-a)^2 N s^2 / 2)

    The exponential-moment argument behind it needs
    ``(1-a) sqrt(N) s >= 1``; below that level only the trivial bound 1
    is available and is what this returns.
    """
    if s < 0:
        raise InputError("deviation level must be >= 0")
    u = (1.0 - a) * math.sqrt(n_particles) * s
    if u < 1.0:
        return 1.0
    return min(1.0, u * math.exp(0.5 * (1.0 - u * u)))


def adaptive_deviation_threshold(y: float, n_particles: float, a: float) -> float:
    """Adaptive-regime deviation threshold ``r (1 + sqrt(y)) / sqrt(N)`` with
    ``r = 2/(1-a)``; the matching tail level is ``exp(-y)`` for y >= 1."""
    if y < 1.0:
        raise InputError("confidence exponent must be >= 1")
    return 2.0 / (1.0 - a) * (1.0 + math.sqrt(y)) / math.sqrt(n_particles)
