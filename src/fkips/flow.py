"""Exact Feynman-Kac flow on finite state spaces.

A flow is a (d,) initial law ``eta_0`` plus steps ``(G_n, M_n)``,
``n = 1..T``, held as two arrays: the (T, d) potentials and the (T, d, d)
kernel rows.  Each step reweights by the positive potential ``G_n`` and
pushes through the Markov kernel ``M_n``:

    eta_n(y) = sum_x eta_{n-1}(x) G_n(x) M_n(x, y) / eta_{n-1}(G_n)

The unnormalized mass ``gamma_n(1)`` is the running product of mean
potentials ``eta_{p-1}(G_p)``.  The composed operator from time p to n is
``Q_{p,n} = diag(G_{p+1}) M_{p+1} ... diag(G_n) M_n``; its row sums
``h_{p,n} = Q_{p,n} 1`` are the composed potential and its row
normalization is the composed transition ``P_{p,n}``.  The two stability
quantities

    g_{p,n} = max(h_{p,n}) / min(h_{p,n})      (potential-ratio oscillation)
    b_{p,n} = dobrushin(P_{p,n})               (mixing of the composed step)

control every non-asymptotic estimate downstream.

:func:`semigroup_table` builds them for every p <= n by one recursion
along the lag k = n - p.  ``P_{p,n} = R_{p+1} ... R_n`` is a product of
stochastic twisted kernels ``R_k(x, y) ∝ G_k(x) M_k(x, y) h_{k,n}(y)`` (Del
Moral, *Feynman-Kac Formulae*, 2004).  The recursion carries ``h`` (rescaled
by its maximum, the scale kept in log space so annealing products cannot
underflow) and the centred matrix ``C_{p,n} = P_{p,n} - 1 (x) P_{p,n}(0, .)``:

    C_{n,n} = I - 1 (x) e_0,    C_{p,n} = (R_{p+1} - 1 (x) R_{p+1}(0, .)) . C_{p+1,n}

and ``b_{p,n}`` is half the largest L1 distance between two rows of
``C_{p,n}``.  Each factor subtracts rows of a single one-step kernel, which
differ at the order of that step's own mixing, so b keeps its relative
precision however small it gets.  Subtracting rows of ``P_{p,n}`` itself,
which agree to 16 digits once n - p is large, would leave only float noise.
Each pair (p, n) follows from (p + 1, n): per lag n - p, one stacked step
(the per-pair BLAS calls, so the same bits) and one Dobrushin reduction,
over a few (T + 1, d, d) stacks, the order of the flow's own kernels.  As
``h_{n,n} = 1`` makes ``R_n = M_n``, ``b_{n-1,n}`` is the trace's value.

A frozen :class:`FlowSpec` builds its run (``spec.trace``, whose laws are
one (T+1, d) array) and its table (``spec.table``) once; every check reads
those.  Everything here is dense linear algebra, exact up to float64
roundoff, and serves as ground truth for the particle engine and the bound
verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMeasureError, InputError, RatioOverflowError
from .measures import _check_potentials, _checked_law, _freeze, _kernel_row_sums, _max_row_l1, law

# Exact-oracle size caps: O(d^2 * T) memory and time must stay desk-scale.
MAX_DIM = 4096
MAX_STEPS = 10_000


@dataclass(frozen=True, eq=False)
class FlowSpec:
    """Initial law plus the flow's T steps as two arrays:
    ``potentials[n - 1]`` is G_n, strictly positive, and ``kernels[n - 1]``
    holds the rows of M_n.  The (d,) initial law and each kernel row sum to
    1 within the measures' tolerance.  All three are validated and copied
    once, into read-only C-contiguous float64 arrays, and kept as given,
    not renormalized."""

    initial: np.ndarray
    potentials: np.ndarray
    kernels: np.ndarray

    def __post_init__(self):
        initial = _checked_law(self.initial, "initial weights")
        d = initial.size
        if d > MAX_DIM:
            raise InputError(f"exact oracle capped at dimension {MAX_DIM}")
        try:
            potentials = np.array(self.potentials, dtype=np.float64, order="C")
            kernels = np.array(self.kernels, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise InputError(f"flow potentials and kernels must be float arrays: {exc}") from None
        t = len(potentials) if potentials.ndim else 0
        if potentials.shape != (t, d) or kernels.shape != (t, d, d):
            raise InputError(
                f"a flow on {d} states needs (T, {d}) potentials and (T, {d}, {d}) kernels,"
                f" got {potentials.shape} and {kernels.shape}"
            )
        if t > MAX_STEPS:
            raise InputError(f"exact oracle capped at {MAX_STEPS} steps")
        _check_potentials(potentials)
        _kernel_row_sums(kernels)
        object.__setattr__(self, "initial", _freeze(initial))
        object.__setattr__(self, "potentials", _freeze(potentials))
        object.__setattr__(self, "kernels", _freeze(kernels))

    @property
    def dim(self) -> int:
        return self.initial.size

    @property
    def horizon(self) -> int:
        return len(self.potentials)

    @cached_property
    def trace(self) -> "FlowTrace":
        """The exact flow, run once per spec."""
        return run_flow(self)

    @cached_property
    def table(self) -> "SemigroupTable":
        """Stability constants of every composed operator, built once per spec."""
        return semigroup_table(self)


@dataclass(frozen=True, eq=False)
class FlowTrace:
    """Exact flow output: per-step laws, unnormalized mass and step constants."""

    etas: np.ndarray     # (T+1, d): eta_0 .. eta_T
    gamma1: tuple        # gamma_n(1), gamma_0(1) = 1
    log_gamma1: tuple    # log of the above
    g: tuple             # per-step potential ratios g_1 .. g_T
    b: tuple             # per-step Dobrushin coefficients b_1 .. b_T


def fk_step(mu, potential, kernel) -> np.ndarray:
    """One flow step from the (d,) law ``mu``: reweight by the (d,)
    potential ``G``, push through the (d, d) kernel rows ``M`` and return
    the :func:`~fkips.measures.law` of the result."""
    mu, potential, kernel = (np.asarray(x, np.float64) for x in (mu, potential, kernel))
    d = mu.size
    if mu.shape != (d,) or potential.shape != (d,) or kernel.shape != (d, d):
        raise InputError("dimension mismatch in flow step")
    w = potential * mu
    s = w.sum()
    if s <= 0:
        raise DegenerateMeasureError("mu(G) = 0: flow step undefined")
    return law((w / s) @ kernel)


def run_flow(spec: FlowSpec) -> FlowTrace:
    """Iterate the flow and record laws, mass products and step constants."""
    etas = [spec.initial]
    log_gamma = [0.0]
    for potential, kernel in zip(spec.potentials, spec.kernels):
        mean_g = float(etas[-1] @ potential)
        if mean_g <= 0:
            raise DegenerateMeasureError("mu(G) = 0: flow step undefined")
        log_gamma.append(log_gamma[-1] + math.log(mean_g))
        etas.append(fk_step(etas[-1], potential, kernel))
    with np.errstate(over="ignore"):   # a ratio past float64 is g = inf
        g = spec.potentials.max(1) / spec.potentials.min(1)
    return FlowTrace(
        etas=_freeze(np.stack(etas)),
        gamma1=tuple(math.exp(v) for v in log_gamma),
        log_gamma1=tuple(log_gamma),
        g=tuple(g.tolist()),
        b=tuple((0.5 * _max_row_l1(spec.kernels)).tolist()),
    )


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """Stability constants of all Q_{p,n}: ``g[p, n]`` = g_{p,n}, ``b[p, n]`` =
    b_{p,n} and ``mass[p, n]`` = ``gamma_p . Q_{p,n} . 1`` for p <= n <= T
    (NaN for p > n).  Only scalars are kept: the per-pair matrices would take
    O(d^2 T^2) memory."""

    g: np.ndarray
    b: np.ndarray
    mass: np.ndarray


def semigroup_table(spec: FlowSpec) -> SemigroupTable:
    """The centred twisted-kernel recursion of the module docstring, run
    along lags: lag k moves every pair (p + 1, p + k) to (p, p + k)."""
    size, d, trace = spec.horizon + 1, spec.dim, spec.trace
    g, b, mass = (np.full((size, size), np.nan) for _ in range(3))
    rows, potentials = spec.kernels, spec.potentials
    weights, gamma1 = trace.etas[:, None], np.array(trace.gamma1)
    h, log_scale = np.ones((size, d)), [0.0] * size
    centred = np.broadcast_to(np.eye(d) - np.eye(1, d), (size, d, d))
    for lag in range(size):
        count = size - lag   # pairs (p, p + lag) for p < count
        if lag:
            mh = np.matmul(rows[:count], h[1:, :, None])[..., 0]
            # R(x, y) = G(x) M(x, y) h(y) / G(x) (M h)(x): G cancels
            twisted = rows[:count] * h[1:, None]
            twisted /= mh[..., None]
            twisted -= twisted[:, :1]
            centred = np.matmul(twisted, centred[1:])
            h = potentials[:count] * mh
            top = h.max(1)
            h /= top[:, None]
            log_scale = [s + math.log(t) for s, t in zip(log_scale[1:], top.tolist())]
        lo = h.min(1)
        if np.any(lo <= 0):
            raise RatioOverflowError("composed potential has a zero entry; ratio undefined")
        p = np.arange(count)
        g[p, p + lag] = h.max(1) / lo
        mass[p, p + lag] = gamma1[:count] * np.matmul(weights[:count], h[..., None])[:, 0, 0]
        mass[p, p + lag] *= [math.exp(s) for s in log_scale]
        if lag > 1:   # b_{n-1,n} is read from the trace
            b[p, p + lag] = 0.5 * _max_row_l1(centred)
    np.fill_diagonal(b, float(d > 1))  # C_{n,n} = I - 1 (x) e_0: two rows 2 apart
    np.fill_diagonal(b[:, 1:], trace.b)
    for arr in (g, b, mass):
        arr.setflags(write=False)
    return SemigroupTable(g=g, b=b, mass=mass)


def excess(lhs, rhs):
    """``lhs - rhs`` in units of ``min(1, rhs)``, elementwise: relative
    wherever rhs < 1, so a tolerance on it stays meaningful for caps like
    ``a^(n-p)``.  Over ``rhs <= 0`` a positive gap is infinite and any other
    gap is returned as it is."""
    gap = np.subtract(lhs, rhs, dtype=np.float64)
    scale = np.minimum(1.0, rhs)
    out = np.where(gap > 0, math.inf, gap)
    return np.divide(gap, scale, out=out, where=scale > 0)


def worst_excess(excesses, checked, scope):
    """``(ok, worst, scope)`` of a batch of inequalities held as arrays.

    ``excesses`` holds the :func:`excess` of each inequality at the entries
    the boolean array ``checked`` marks, laid out so that C order is the
    batch's record order.  ``worst`` is the largest checked excess, ``ok``
    says whether it is at most 1e-10, and the scope is
    ``scope(*index)`` of the first entry holding it.  A NaN excess is the
    worst and fails.
    """
    values = excesses[checked]
    first = int(np.argmax(values))
    worst = float(values[first])
    index = np.unravel_index(np.flatnonzero(checked)[first], checked.shape)
    return worst <= 1e-10, worst, scope(*(int(i) for i in index))


_LEMMAS = ("potential-ratio-sum", "mixing-product", "stability-product", "backward-recursion")


def semigroup_lemma_excess(spec: FlowSpec):
    """The :func:`excess` of every composed-step estimate of
    :func:`check_semigroup_lemmas`, as :func:`worst_excess` reads them.

    Entry ``[n, p, family]`` is the family's inequality at (p, n), in the
    order of :data:`_LEMMAS`; the backward recursion is stored at p and
    scoped at p - 1, the pair whose ratio it bounds.  One loop over k
    multiplies factor k into the products of every pair p < k <= n at once,
    so each entry sees the same operations, in the same order, as a loop
    over k for that pair alone.
    """
    g, b = spec.table.g, spec.table.b
    size = spec.horizon + 1
    p, n = np.indices((size, size))
    # step_g[k] = g_{k-1,k}, step_b[k] = b_{k-1,k}; entry 0 is never read
    step_g, step_b = np.append(1.0, np.diagonal(g, 1)), np.append(1.0, np.diagonal(b, 1))
    ratio_sum, (mixing, stability) = np.zeros((size, size)), np.ones((2, size, size))
    terms, prods = np.zeros(size), np.ones(size)
    for k in range(1, size):
        terms[:k] += (step_g[k] - 1.0) * prods[:k]
        prods[:k] *= step_g[k] * step_b[k]
        ratio_sum[:k, k] = terms[:k]
        mixing[:k, k:] *= step_b[k] * g[k, k:]
        stability[:k, k:] *= step_b[k] * g[k - 1, k:]
    backward = step_g[:, None] * (1.0 + step_b[:, None] * (g - 1.0))
    excesses = np.stack([
        excess(g, 1.0 + ratio_sum),
        excess(b, mixing),
        excess(g * b, stability),
        excess(np.roll(g, 1, axis=0), backward),   # row p holds g_{p-1,n}
    ])
    checked = np.stack([p <= n] * 3 + [(1 <= p) & (p <= n)])
    return (
        excesses.transpose(2, 1, 0),
        checked.transpose(2, 1, 0),
        lambda n, p, family: f"{_LEMMAS[family]},p={p - (family == 3)},n={n}",
    )


def check_semigroup_lemmas(spec: FlowSpec):
    """Evaluate the composed-step estimates against exact quantities and
    return :func:`worst_excess`'s ``(ok, worst, scope)``.

    For every pair p <= n the following are checked with both sides computed
    exactly:

    * potential-ratio sum bound (the backward recursion unrolled):
        g_{p,n} <= 1 + sum_{k=p+1..n} (g_k - 1) * prod_{j=p+1..k-1} g_j b_j
    * mixing product bound:
        b_{p,n} <= prod_{k=p+1..n} b_k * g_{k,n}
    * stability product bound:
        g_{p,n} * b_{p,n} <= prod_{k=p+1..n} b_k * g_{k-1,n}
    * backward one-step recursion (p >= 1):
        g_{p-1,n} <= g_p * (1 + b_p * (g_{p,n} - 1))

    The records run n ascending, then p ascending, then in that list's
    order.  The sum bound with bare ``b_j`` products inside circulates in
    the literature but does not follow from the recursion and fails on
    exact instances (see the regression test pinning a 3-state
    counterexample), so it is not checked.

    Each inequality is compared to relative precision wherever its rhs is
    below 1 (:func:`excess`).  Two choices keep float resolution out of
    that comparison.  The sum bound is stated for g_{p,n}, not g_{p,n} - 1,
    whose value near g = 1 is known only to an absolute 1e-16.  The one-step
    constants g_k = ratio(G_k) and b_k = dobrushin(M_k) are read from the
    table's own entries g_{k-1,k} and b_{k-1,k} (the latter is b_k bit for
    bit, the former equals g_k in exact arithmetic); the p = n - 1 cases,
    which are identities, then compare equal bit for bit.
    """
    return worst_excess(*semigroup_lemma_excess(spec))


def stability_sums(spec: FlowSpec) -> list:
    """For each n: the exact sum ``sum_{k=0..n} g_{k,n} * b_{k,n}``.

    This is the constant multiplying ``B_p / sqrt(N)`` in the particle
    L^p error bound.
    """
    g, b = spec.table.g.tolist(), spec.table.b.tolist()
    return [sum(g[p][n] * b[p][n] for p in range(n, -1, -1)) for n in range(spec.horizon + 1)]


@dataclass(frozen=True)
class RawConcentrationEstimates:
    """Upper estimates (exact composed quantities plugged into the printed
    sums) for the raw concentration machinery at time n:

        r_n       <= 4 sum_{p<=n} g_{p,n}^3 b_{p,n}
        beta_bar^2 <= 4 sum_{p<=n} g_{p,n}^2 b_{p,n}^2
        b_star    <= 2 sup_{p<=n} g_{p,n} b_{p,n}
        tau_star  <= sup_q (4/n) sum_{p=q..n-1} g_{q,p} g_{p+1} b_{q,p}
        r_bar     <= (8/n) sum_{0<=q<=p<n} g_{p+1} g_{q,p}^3 b_{q,p}
        sigma_bar^2 = sum_q (tau_q / tau_star)^2   (unit per-term variances,
                      the only universally valid choice)

    These are estimates of unspecified exact constants; only the upper
    forms are printed, so only the upper forms are exposed.
    """

    n: int
    r_n: float
    beta_bar_sq: float
    b_star: float
    tau_star: float
    r_bar: float
    sigma_bar_sq: float


def raw_concentration_estimates(spec: FlowSpec, n: int) -> RawConcentrationEstimates:
    """Evaluate the §-level estimate sums with exact composed quantities."""
    if not 1 <= n <= spec.horizon:
        raise InputError("time index out of range")
    step_g, g, b = spec.trace.g, spec.table.g.tolist(), spec.table.b.tolist()
    end = range(n, -1, -1)
    r_n = 4.0 * sum(g[p][n] ** 3 * b[p][n] for p in end)
    beta_bar_sq = 4.0 * sum((g[p][n] * b[p][n]) ** 2 for p in end)
    b_star = 2.0 * max(g[p][n] * b[p][n] for p in end)
    taus = []
    for q in range(n):
        total = 0.0
        for p in range(q, n):
            total += g[q][p] * step_g[p] * b[q][p]
        taus.append(4.0 / n * total)
    tau_star = max(taus)
    r_bar = 8.0 / n * sum(
        step_g[p] * g[q][p] ** 3 * b[q][p] for p in range(n) for q in range(p + 1)
    )
    sigma_bar_sq = (
        sum((t / tau_star) ** 2 for t in taus) if tau_star > 0 else float(n)
    )
    return RawConcentrationEstimates(
        n=n,
        r_n=r_n,
        beta_bar_sq=beta_bar_sq,
        b_star=b_star,
        tau_star=tau_star,
        r_bar=r_bar,
        sigma_bar_sq=sigma_bar_sq,
    )
