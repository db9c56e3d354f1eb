"""Interacting simulated annealing: Boltzmann-Gibbs targets, Metropolis
annealing kernels, minorization certificates and the tuned optimizer flow.

The target family is ``mu_beta propto exp(-beta V) m`` for an energy table V
and a reference measure m.  The annealing kernel accepts a proposed move
``x -> y`` with probability ``min(1, exp(-beta (V(y) - V(x))))`` and leaves
``mu_beta`` invariant whenever the proposal is m-reversible.  A minorization
certificate ``K^k0(x, .) >= delta nu(.)`` combined with the worst-case
potential climb over k0 proposal moves yields the mixing estimate

    dobrushin(K_beta^k0) <= 1 - delta exp(-beta gap_k0)

which turns admissible mixing levels into explicit MCMC iteration counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .engine import run_counts
from .errors import InputError, NoMinorizationError
from .flow import FlowSpec
from .measures import (
    BoundedFunction,
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
    osc,
)

_REVERSIBILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GibbsProblem:
    """Energy table, reference measure and proposal kernel on a finite space.

    The proposal must be reversible with respect to the reference (checked
    entrywise to 1e-12).
    """

    energy: BoundedFunction
    reference: FiniteDistribution
    proposal: KernelMatrix

    def __post_init__(self):
        if not isinstance(self.energy, BoundedFunction):
            raise InputError("the energy must be a BoundedFunction table")
        if not isinstance(self.reference, FiniteDistribution):
            raise InputError("the reference must be a FiniteDistribution")
        if not isinstance(self.proposal, KernelMatrix):
            raise InputError("the proposal must be a KernelMatrix")
        d = self.energy.dim
        if self.reference.dim != d or self.proposal.dim != d:
            raise InputError("problem dimension mismatch")
        flux = self.reference.weights[:, None] * self.proposal.rows
        gap = float(np.abs(flux - flux.T).max())
        if gap > _REVERSIBILITY_TOL:
            raise InputError(f"proposal is not reversible w.r.t. the reference (gap {gap:.3e})")

    @property
    def dim(self) -> int:
        return self.energy.dim

    @property
    def v_values(self) -> np.ndarray:
        return self.energy.values

    @property
    def v_min(self) -> float:
        return float(self.v_values.min())

    @property
    def v_osc(self) -> float:
        return osc(self.energy)

    def sublevel_mass(self, threshold: float) -> float:
        """Reference mass of ``{V <= threshold}``."""
        return float(self.reference.weights[self.v_values <= threshold].sum())


@dataclass(frozen=True)
class TemperatureSchedule:
    """Non-decreasing inverse temperatures with a regime tag.

    Modes: ``bounded-increment`` (sup of increments capped by
    ``declared_delta``), ``decreasing-increment`` (increments non-increasing)
    and ``constant-step`` (all increments equal).
    """

    betas: tuple
    mode: str
    declared_delta: float | None = None

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        if len(betas) < 1:
            raise InputError("schedule needs at least beta_0")
        deltas = [betas[i + 1] - betas[i] for i in range(len(betas) - 1)]
        if any(d < 0 for d in deltas):
            raise InputError("inverse temperatures must be non-decreasing")
        if self.mode not in ("bounded-increment", "decreasing-increment", "constant-step"):
            raise InputError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "bounded-increment":
            if self.declared_delta is None:
                raise InputError("bounded-increment mode needs declared_delta")
            if deltas and max(deltas) > self.declared_delta + 1e-12:
                raise InputError("an increment exceeds the declared cap")
        if self.mode == "decreasing-increment":
            if any(deltas[i + 1] > deltas[i] + 1e-12 for i in range(len(deltas) - 1)):
                raise InputError("increments must be non-increasing")
        if self.mode == "constant-step" and deltas:
            if max(deltas) - min(deltas) > 1e-12:
                raise InputError("constant-step increments must be equal")
        object.__setattr__(self, "betas", betas)

    @classmethod
    def constant_step(cls, beta0: float, delta: float, steps: int) -> "TemperatureSchedule":
        betas = [beta0 + k * delta for k in range(steps + 1)]
        return cls(tuple(betas), "constant-step", declared_delta=delta)

    @property
    def deltas(self) -> tuple:
        return tuple(
            self.betas[i + 1] - self.betas[i] for i in range(len(self.betas) - 1)
        )

    @property
    def horizon(self) -> int:
        return len(self.betas) - 1

    @property
    def tuning_mode(self) -> str:
        return "decreasing" if self.mode == "decreasing-increment" else "bounded"

    @property
    def delta_cap(self) -> float:
        if self.mode == "bounded-increment":
            return float(self.declared_delta)
        return max(self.deltas) if self.deltas else 0.0


@dataclass(frozen=True)
class MinorizationCert:
    """Certificate ``K^k0(x, .) >= delta nu(.)`` plus the worst-case climb
    ``gap_k0`` over k0 proposal moves."""

    k0: int
    delta: float
    gap_k0: float
    nu: FiniteDistribution | None = None

    def __post_init__(self):
        if self.k0 < 1:
            raise InputError("k0 must be >= 1")
        if not 0.0 < self.delta <= 1.0:
            raise InputError("minorization mass must lie in (0, 1]")
        if self.gap_k0 < 0:
            raise InputError("potential gap must be >= 0")

    def mixing_bound(self, beta: float) -> float:
        """Upper estimate ``1 - delta exp(-beta gap_k0)`` for the k0-step
        annealing kernel's ergodic coefficient."""
        return 1.0 - self.delta * math.exp(-beta * self.gap_k0)


def metropolis_kernel(problem: GibbsProblem, beta: float) -> KernelMatrix:
    """Annealing transition at inverse temperature beta: off-diagonal
    ``K(x,y) min(1, e^{-beta (V(y)-V(x))})`` with the rejected mass folded
    into the diagonal."""
    if beta < 0:
        raise InputError("inverse temperature must be >= 0")
    v = problem.v_values
    k = problem.proposal.rows
    accept = np.minimum(1.0, np.exp(-beta * (v[None, :] - v[:, None])))
    rows = k * accept
    np.fill_diagonal(rows, 0.0)
    off_mass = rows.sum(axis=1)
    d = problem.dim
    rows[np.arange(d), np.arange(d)] = 1.0 - off_mass
    return KernelMatrix(rows)


def gibbs_measure(problem: GibbsProblem, beta: float) -> FiniteDistribution:
    """Exact normalized ``exp(-beta V) m`` (max-shifted for stability)."""
    if beta < 0:
        raise InputError("inverse temperature must be >= 0")
    log_w = -beta * problem.v_values
    log_w = log_w - log_w.max()
    return FiniteDistribution.from_unnormalized(np.exp(log_w) * problem.reference.weights)


def _max_climb(support: np.ndarray, v: np.ndarray, k0: int) -> float:
    """Worst-case accumulated uphill movement over exactly k0 support moves.

    Dynamic program over the proposal's support graph; each edge x -> y
    contributes ``max(V(y) - V(x), 0)``.
    """
    d = v.size
    climb = np.zeros(d)
    gain = np.maximum(v[None, :] - v[:, None], 0.0)
    masked = np.where(support, gain, -np.inf)
    for _ in range(k0):
        # next_climb[y] = max over x with K(x,y) > 0 of climb[x] + gain[x,y]
        cand = climb[:, None] + masked
        climb = cand.max(axis=0)
        if not np.all(np.isfinite(climb)):
            # some state unreachable in this many moves; ignore for the max
            climb = np.where(np.isfinite(climb), climb, 0.0)
    return float(climb.max())


def minorize(problem: GibbsProblem, k0: int) -> MinorizationCert:
    """Entrywise-minimum minorization of the k0-fold proposal.

    ``nu(y) = min_x K^k0(x,y) / delta`` with ``delta`` the total common
    mass; fails when the columns share no mass (e.g. the identity proposal).
    """
    if k0 < 1:
        raise InputError("k0 must be >= 1")
    kk = problem.proposal.power(k0).rows
    common = kk.min(axis=0)
    delta = float(common.sum())
    if delta <= 0:
        raise NoMinorizationError(
            f"k0 = {k0} proposal iterate has no common component; try a larger k0"
        )
    nu = FiniteDistribution.from_unnormalized(common)
    gap = _max_climb(problem.proposal.rows > 0, problem.v_values, k0)
    return MinorizationCert(k0=k0, delta=delta, gap_k0=gap, nu=nu)


@dataclass(frozen=True)
class IsaFlow:
    """Tuned annealing flow: the flow spec plus each step's tuned MCMC
    iteration count m_n."""

    problem: GibbsProblem
    flow: FlowSpec
    schedule: TemperatureSchedule
    cert: MinorizationCert
    a: float
    mcmc_iters: tuple


def build_isa_flow(
    problem: GibbsProblem,
    schedule: TemperatureSchedule,
    cert: MinorizationCert,
    a: float,
) -> IsaFlow:
    """Assemble the annealing flow with tuned MCMC iteration counts.

    Step n carries potential ``exp(-Delta_n V)`` and kernel
    ``K_{beta_n}^(k0 m_n)`` where m_n comes from the schedule's regime rule;
    the flow then maps each Gibbs law exactly onto the next one.
    """
    v_osc = problem.v_osc
    iters, steps = [], []
    mode = schedule.tuning_mode
    for n, delta in enumerate(schedule.deltas, start=1):
        beta_n = schedule.betas[n]
        try:
            m_n = bounds.tune_mcmc_iters(
                beta_n,
                cert.delta,
                cert.gap_k0,
                a,
                mode,
                delta_osc=schedule.delta_cap * v_osc,
                delta_p_osc=delta * v_osc,
            )
        except Exception as exc:
            raise type(exc)(f"step {n}: {exc}") from exc
        power = cert.k0 * m_n
        kernel = metropolis_kernel(problem, beta_n).power(power)
        potential = PotentialVector.boltzmann(problem.v_values, delta)
        steps.append((potential, kernel))
        iters.append(m_n)
    flow = FlowSpec(initial=gibbs_measure(problem, schedule.betas[0]), steps=tuple(steps))
    return IsaFlow(
        problem=problem, flow=flow, schedule=schedule, cert=cert, a=a, mcmc_iters=tuple(iters)
    )


@dataclass(frozen=True)
class OptimizeStepRow:
    step: int
    beta: float
    proportion_exact: float    # mass at energy >= V_min + eps under the exact flow law
    gibbs_term: float
    thresholds: dict           # y -> composite bound


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    rows: tuple
    proportions: np.ndarray    # (R, T): particle mass at energy >= V_min + eps, steps 1..T
    report: bounds.BoundReport


def optimize(
    isa: IsaFlow,
    n_particles: int,
    seed: int,
    epsilon_level: float,
    eps_prime: float,
    *,
    y_values: tuple = (2.0,),
    replicates: int = 1,
) -> OptimizeResult:
    """Run R replicates of the tuned annealing optimizer on a built flow and
    report the composite bound.

    Per step and replicate the result holds the proportion of particles at
    energy ``V_min + epsilon_level`` or above; per step it holds the
    exact-law mass of the same event and, for each requested confidence
    exponent y, the bound

        gibbs_tail(beta_n) + (r_i N + r_j y) / N^2

    with the regime's occupation-deviation threshold
    (:func:`~fkips.bounds.deviation_thresholds`).
    """
    if not 0.0 < eps_prime < epsilon_level:
        raise InputError("thresholds must satisfy 0 < eps' < eps")
    problem, schedule, cert, a = isa.problem, isa.schedule, isa.cert, isa.a
    trace = isa.flow.trace
    run = run_counts(isa.flow, n_particles, seed, replicates=replicates)

    v = problem.v_values
    v_min = problem.v_min
    tail_set = (v >= v_min + epsilon_level).astype(np.float64)
    m_eps_prime = problem.sublevel_mass(v_min + eps_prime)
    if m_eps_prime <= 0:
        raise InputError("reference mass of the eps' sub-level set is zero")
    # a per-row sum of whole counts: exact, whatever R is
    proportions = (run.counts[:, 1:] * tail_set).sum(axis=2) / n_particles

    # the potential-ratio cap, or the ratio of each step
    mode = schedule.tuning_mode
    if mode == "bounded":
        g = math.exp(schedule.delta_cap * problem.v_osc)
    else:
        g = [math.exp(d * problem.v_osc) for d in schedule.deltas]

    rows = []
    for n in range(1, schedule.horizon + 1):
        beta_n = schedule.betas[n]
        gibbs_term = bounds.gibbs_tail_bound(beta_n, epsilon_level, eps_prime, m_eps_prime)
        thresholds = {
            float(y): gibbs_term + bounds.deviation_thresholds(mode, a, g, n_particles, n, y)[0]
            for y in y_values
        }
        rows.append(
            OptimizeStepRow(
                step=n,
                beta=beta_n,
                proportion_exact=trace.etas[n].expect(tail_set),
                gibbs_term=gibbs_term,
                thresholds=thresholds,
            )
        )
    report = bounds.BoundReport(
        name="annealed-optimizer",
        inputs={
            "n_particles": n_particles,
            "eps": epsilon_level,
            "eps_prime": eps_prime,
            "a": a,
            "k0": cert.k0,
            "delta": cert.delta,
            "gap_k0": cert.gap_k0,
            "mode": mode,
        },
        values={
            "m_eps_prime": m_eps_prime,
            "final_beta": schedule.betas[-1],
            "final_gibbs_term": rows[-1].gibbs_term if rows else 1.0,
        },
        formula_ref="tail <= exp(-beta_n (eps - eps')) / m_eps' + (r_i N + r_j y)/N^2",
    )
    return OptimizeResult(rows=tuple(rows), proportions=proportions, report=report)
