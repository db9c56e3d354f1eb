"""Exact Feynman-Kac flow on finite state spaces.

A flow is an initial distribution ``eta_0`` plus steps ``(G_n, M_n)``,
``n = 1..T``.  Each step reweights by the positive potential ``G_n`` and
pushes through the Markov kernel ``M_n``:

    eta_n = bg_transform(G_n, eta_{n-1}) . M_n

The unnormalized mass ``gamma_n(1)`` is the running product of mean
potentials ``eta_{p-1}(G_p)``.  The composed step operator from time p to n
is the matrix product of ``diag(G_k) . M_k`` factors; its row sums give the
composed potential ``G_{p,n}``, its row normalization the composed transition
``P_{p,n}``, and from those the two stability quantities

    g_{p,n} = max(G_{p,n}) / min(G_{p,n})      (potential-ratio oscillation)
    b_{p,n} = dobrushin(P_{p,n})               (mixing of the composed step)

whose product controls every non-asymptotic estimate downstream.  A frozen
:class:`FlowSpec` builds its run (``spec.trace``) and its table of g_{p,n},
b_{p,n} for all p <= n (``spec.table``) once; every check reads those.
Everything here is dense linear algebra, exact up to float64 roundoff, and
serves as ground truth for the particle engine and the bound verifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMeasureError, InputError, RatioOverflowError
from .measures import (
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
    dobrushin,
    potential_ratio,
)

# Exact-oracle size caps: O(d^2 * T) memory and time must stay desk-scale.
MAX_DIM = 4096
MAX_STEPS = 10_000

# Composed potentials whose minimum underflows 1e-300 have no reportable ratio.
_MIN_REPORTABLE = 1e-300


@dataclass(frozen=True, eq=False)
class FlowSpec:
    """Initial distribution plus an ordered list of (potential, kernel) steps."""

    initial: FiniteDistribution
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        d = self.initial.dim
        if d > MAX_DIM:
            raise InputError(f"exact oracle capped at dimension {MAX_DIM}")
        if len(steps) > MAX_STEPS:
            raise InputError(f"exact oracle capped at {MAX_STEPS} steps")
        for n, (g, m) in enumerate(steps, start=1):
            if not isinstance(g, PotentialVector) or not isinstance(m, KernelMatrix):
                raise InputError(f"step {n} must be a (PotentialVector, KernelMatrix) pair")
            if g.dim != d or m.dim != d:
                raise InputError(f"step {n} dimension mismatch")
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return self.initial.dim

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @cached_property
    def trace(self) -> "FlowTrace":
        """The exact flow, run once per spec."""
        return run_flow(self)

    @cached_property
    def table(self) -> "SemigroupTable":
        """Stability constants of every composed operator, built once per spec."""
        return SemigroupTable.build(self)


@dataclass(frozen=True)
class FlowTrace:
    """Exact flow output: per-step laws, unnormalized mass and step constants."""

    etas: tuple          # eta_0 .. eta_T
    gamma1: tuple        # gamma_n(1), gamma_0(1) = 1
    log_gamma1: tuple    # log of the above
    g: tuple             # per-step potential ratios g_1 .. g_T
    b: tuple             # per-step Dobrushin coefficients b_1 .. b_T

    @property
    def horizon(self) -> int:
        return len(self.etas) - 1


@dataclass(frozen=True, eq=False)
class SemigroupQuantities:
    """Composed operator from time p to n with its stability constants.

    ``q_scaled`` holds the matrix product of ``diag(G_k) . M_k`` factors
    rescaled so its largest entry is 1; ``log_scale`` restores magnitudes.
    """

    p: int
    n: int
    q_scaled: np.ndarray
    log_scale: float
    potential_scaled: np.ndarray   # row sums of q_scaled = G_{p,n} up to scale
    transition: KernelMatrix       # P_{p,n}
    g: float                       # g_{p,n}
    b: float                       # b_{p,n}

    @property
    def potential(self) -> PotentialVector:
        """Composed potential at true scale; refuses on underflow."""
        lo = float(self.potential_scaled.min())
        if lo <= 0 or math.log(lo) + self.log_scale < math.log(_MIN_REPORTABLE):
            raise RatioOverflowError(
                "composed potential minimum below 1e-300; ratio not reportable"
            )
        return PotentialVector(self.potential_scaled * math.exp(self.log_scale))


def fk_step(
    mu: FiniteDistribution, potential: PotentialVector, kernel: KernelMatrix
) -> FiniteDistribution:
    """One flow step: reweight by ``G`` then push through ``M``."""
    if potential.dim != mu.dim or kernel.dim != mu.dim:
        raise InputError("dimension mismatch in flow step")
    w = potential.values * mu.weights
    s = w.sum()
    if s <= 0:
        raise DegenerateMeasureError("mu(G) = 0: flow step undefined")
    return FiniteDistribution((w / s) @ kernel.rows)


def run_flow(spec: FlowSpec) -> FlowTrace:
    """Iterate the flow and record laws, mass products and step constants."""
    etas = [spec.initial]
    log_gamma = [0.0]
    gs, bs = [], []
    for potential, kernel in spec.steps:
        mean_g = etas[-1].expect(potential.values)
        if mean_g <= 0:
            raise DegenerateMeasureError("mu(G) = 0: flow step undefined")
        log_gamma.append(log_gamma[-1] + math.log(mean_g))
        etas.append(fk_step(etas[-1], potential, kernel))
        gs.append(potential_ratio(potential))
        bs.append(dobrushin(kernel))
    return FlowTrace(
        etas=tuple(etas),
        gamma1=tuple(math.exp(v) for v in log_gamma),
        log_gamma1=tuple(log_gamma),
        g=tuple(gs),
        b=tuple(bs),
    )


def _step_factor(spec: FlowSpec, k: int) -> np.ndarray:
    """Matrix of the single-step unnormalized operator ``diag(G_k) . M_k``."""
    potential, kernel = spec.steps[k - 1]
    return potential.values[:, None] * kernel.rows


def _quantities_from_matrix(p: int, n: int, q: np.ndarray, log_scale: float) -> SemigroupQuantities:
    row_sums = q.sum(axis=1)
    lo = float(row_sums.min())
    if lo <= 0:
        raise RatioOverflowError("composed potential has a zero entry; ratio undefined")
    g = float(row_sums.max()) / lo
    transition = KernelMatrix(q / row_sums[:, None])
    return SemigroupQuantities(
        p=p,
        n=n,
        q_scaled=q,
        log_scale=log_scale,
        potential_scaled=row_sums,
        transition=transition,
        g=g,
        b=dobrushin(transition),
    )


def _backward(spec: FlowSpec, n: int):
    """Yield ``(p, q, log_scale)`` for p = n, n-1, ..., 0, where
    ``q * exp(log_scale)`` is the composed operator Q_{p,n}.

    Each factor is renormalized by its largest entry with the scale tracked
    separately in log space, so annealing products cannot underflow.
    """
    q = np.eye(spec.dim)
    log_scale = 0.0
    yield n, q, log_scale
    for p in range(n - 1, -1, -1):
        q = _step_factor(spec, p + 1) @ q
        top = q.max()
        if top <= 0:
            raise RatioOverflowError("composed operator vanished")
        q = q / top
        log_scale += math.log(top)
        yield p, q, log_scale


def _gamma_route(trace: FlowTrace, p: int, q: np.ndarray, log_scale: float, values) -> float:
    """``gamma_p . Q_{p,n} . f`` from a scaled composed operator."""
    gamma_p_vec = trace.etas[p].weights * trace.gamma1[p]
    return float(gamma_p_vec @ (q @ values)) * math.exp(log_scale)


def semigroup(spec: FlowSpec, p: int, n: int) -> SemigroupQuantities:
    """Composed operator Q_{p,n} built by the backward factor recursion."""
    if not 0 <= p <= n <= spec.horizon:
        raise InputError("indices must satisfy 0 <= p <= n <= horizon")
    return next(_quantities_from_matrix(p, n, q, s) for k, q, s in _backward(spec, n) if k == p)


def semigroup_table(spec: FlowSpec, n: int) -> list:
    """All composed operators ending at time ``n``: entries for p = n..0."""
    if not 0 <= n <= spec.horizon:
        raise InputError("index out of range")
    return [_quantities_from_matrix(p, n, q, s) for p, q, s in _backward(spec, n)]


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """Stability constants of all Q_{p,n}: ``g[p, n]`` = g_{p,n}, ``b[p, n]`` =
    b_{p,n} and ``mass[p, n]`` = ``gamma_p . Q_{p,n} . 1`` for p <= n <= T
    (NaN for p > n).  Only scalars are kept: the per-pair matrices would take
    O(d^2 T^2) memory."""

    g: np.ndarray
    b: np.ndarray
    mass: np.ndarray

    @classmethod
    def build(cls, spec: FlowSpec) -> "SemigroupTable":
        size, ones = spec.horizon + 1, np.ones(spec.dim)
        g, b, mass = (np.full((size, size), np.nan) for _ in range(3))
        for n in range(size):
            for p, q, log_scale in _backward(spec, n):
                sg = _quantities_from_matrix(p, n, q, log_scale)
                g[p, n], b[p, n] = sg.g, sg.b
                mass[p, n] = _gamma_route(spec.trace, p, q, log_scale, ones)
        for arr in (g, b, mass):
            arr.setflags(write=False)
        return cls(g=g, b=b, mass=mass)


def compose_measure(spec: FlowSpec, sg: SemigroupQuantities, mu: FiniteDistribution,
                    values=None) -> float:
    """Evaluate ``phi_{p,n}(mu)(f) = mu(Q_{p,n} f) / mu(Q_{p,n} 1)`` exactly."""
    if values is None:
        values = np.ones(spec.dim)
    v = np.asarray(values, dtype=np.float64)
    num = float(mu.weights @ (sg.q_scaled @ v))
    den = float(mu.weights @ sg.potential_scaled)
    if den <= 0:
        raise DegenerateMeasureError("mu(G_{p,n}) = 0")
    return num / den


def gamma_via_semigroup(spec: FlowSpec, trace: FlowTrace, p: int, n: int,
                        values=None) -> float:
    """Independent route to ``gamma_n(f)``: the mass at time p pushed through
    the composed operator, ``gamma_p . Q_{p,n} . f``."""
    if values is None:
        values = np.ones(spec.dim)
    sg = semigroup(spec, p, n)
    return _gamma_route(trace, p, sg.q_scaled, sg.log_scale, np.asarray(values, dtype=np.float64))


def gamma_direct(trace: FlowTrace, n: int, values=None) -> float:
    """Recursion route to ``gamma_n(f) = eta_n(f) * gamma_n(1)``."""
    if values is None:
        return trace.gamma1[n]
    return trace.etas[n].expect(values) * trace.gamma1[n]


@dataclass(frozen=True)
class InequalityRecord:
    """One evaluated inequality ``lhs <= rhs`` with its slack."""

    name: str
    p: int
    n: int
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class LemmaReport:
    """Batch of inequality evaluations with the worst slack."""

    records: tuple

    @property
    def min_slack(self) -> float:
        return min(r.slack for r in self.records) if self.records else math.inf

    def holds(self, tolerance: float = 1e-10) -> bool:
        return self.min_slack >= -tolerance

    def worst(self) -> InequalityRecord:
        return min(self.records, key=lambda r: r.slack)


def check_semigroup_lemmas(spec: FlowSpec, include_as_printed: bool = False) -> LemmaReport:
    """Evaluate the composed-step estimates against exact quantities.

    For every pair p <= n the following are checked with both sides computed
    exactly:

    * potential-ratio sum bound (the backward recursion unrolled):
        g_{p,n} - 1 <= sum_{k=p+1..n} (g_k - 1) * prod_{j=p+1..k-1} g_j b_j
    * mixing product bound:
        b_{p,n} <= prod_{k=p+1..n} b_k * g_{k,n}
    * stability product bound:
        g_{p,n} * b_{p,n} <= prod_{k=p+1..n} b_k * g_{k-1,n}
    * backward one-step recursion (p >= 1):
        g_{p-1,n} <= g_p * (1 + b_p * (g_{p,n} - 1))

    ``include_as_printed`` additionally evaluates the sum bound with bare
    ``b_j`` products inside.  That variant circulates in the literature but
    does not follow from the recursion and fails on exact instances (see the
    regression test pinning a 3-state counterexample); it is reported only
    for documentation and never gates verification.
    """
    trace_g, trace_b = [None, *spec.trace.g], [None, *spec.trace.b]
    g, b = spec.table.g.T.tolist(), spec.table.b.T.tolist()
    records = []
    for n in range(spec.horizon + 1):
        g_pn, b_pn = g[n], b[n]
        for p in range(n + 1):
            # potential-ratio sum bound
            rhs = 0.0
            prod_gb = 1.0
            rhs_printed = 0.0
            prod_b = 1.0
            for k in range(p + 1, n + 1):
                rhs += (trace_g[k] - 1.0) * prod_gb
                prod_gb *= trace_g[k] * trace_b[k]
                rhs_printed += (trace_g[k] - 1.0) * prod_b
                prod_b *= trace_b[k]
            records.append(
                InequalityRecord("potential-ratio-sum", p, n, g_pn[p] - 1.0, rhs)
            )
            if include_as_printed:
                records.append(
                    InequalityRecord(
                        "potential-ratio-sum-as-printed", p, n, g_pn[p] - 1.0, rhs_printed
                    )
                )
            # mixing product bound
            rhs = 1.0
            for k in range(p + 1, n + 1):
                rhs *= trace_b[k] * g_pn[k]
            records.append(InequalityRecord("mixing-product", p, n, b_pn[p], rhs))
            # stability product bound
            rhs = 1.0
            for k in range(p + 1, n + 1):
                rhs *= trace_b[k] * g_pn[k - 1]
            records.append(
                InequalityRecord("stability-product", p, n, g_pn[p] * b_pn[p], rhs)
            )
            # backward recursion
            if p >= 1:
                rhs = trace_g[p] * (1.0 + trace_b[p] * (g_pn[p] - 1.0))
                records.append(
                    InequalityRecord("backward-recursion", p - 1, n, g_pn[p - 1], rhs)
                )
    return LemmaReport(records=tuple(records))


def check_kernel_potential_bound(kernel: KernelMatrix, potential: PotentialVector):
    """Smoothing of a potential by a kernel:

        max_x K.G(x) / min_y K.G(y)  <=  1 + dobrushin(K) * (ratio(G) - 1)

    Returns an :class:`InequalityRecord`.
    """
    if kernel.dim != potential.dim:
        raise InputError("dimension mismatch")
    kg = kernel.apply(potential.values)
    lhs = float(kg.max()) / float(kg.min())
    rhs = 1.0 + dobrushin(kernel) * (potential_ratio(potential) - 1.0)
    return InequalityRecord("kernel-potential-smoothing", 0, 0, lhs, rhs)


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
