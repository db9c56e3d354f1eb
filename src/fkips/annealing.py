"""Interacting simulated annealing: Boltzmann-Gibbs targets, Metropolis
annealing kernels, minorization certificates and the tuned optimizer flow.

The target family is ``mu_beta propto exp(-beta V) m`` for a (d,) energy V
and a (d,) reference law m.  The annealing kernel accepts a proposed move
``x -> y`` with probability ``min(1, exp(-beta (V(y) - V(x))))`` and leaves
``mu_beta`` invariant whenever the proposal is m-reversible.  A minorization
certificate ``K^k0(x, .) >= delta nu(.)`` combined with the worst-case
potential climb over k0 proposal moves yields the mixing estimate

    dobrushin(K_beta^k0) <= 1 - delta exp(-beta gap_k0)

which turns admissible mixing levels into explicit MCMC iteration counts.

Every annealing kernel is built as one stack: :func:`metropolis_kernels`
gives the (k, d, d) rows of K_beta for a whole vector of inverse
temperatures in one broadcast expression, and
:func:`~fkips.measures.kernel_powers` raises the stack to its iteration
counts in one loop.  The tuned flow, the adaptive reference schedule and
the annealing checks each make one call of each, and adaptive mutation one
per block of replicates and step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .engine import run_counts
from .errors import BudgetExceededError, InputError, NoMinorizationError
from .flow import FlowSpec
from .measures import (
    KernelMatrix, _as_vector, _checked_law, _freeze, kernel_powers, normalized_law, osc,
)

_REVERSIBILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GibbsProblem:
    """Energy table, reference law and proposal kernel on a finite space.

    The (d,) energy and reference law are validated and copied once into
    read-only float64 arrays, the law kept as given, not renormalized.  The
    proposal must be reversible with respect to the reference (checked
    entrywise to 1e-12).
    """

    v_values: np.ndarray
    reference: np.ndarray
    proposal: KernelMatrix

    def __post_init__(self):
        v = _as_vector(self.v_values, "energy values")
        reference = _checked_law(self.reference, "reference weights")
        if not isinstance(self.proposal, KernelMatrix):
            raise InputError("the proposal must be a KernelMatrix")
        if reference.size != v.size or self.proposal.dim != v.size:
            raise InputError("problem dimension mismatch")
        flux = reference[:, None] * self.proposal.rows
        gap = float(np.abs(flux - flux.T).max())
        if gap > _REVERSIBILITY_TOL:
            raise InputError(f"proposal is not reversible w.r.t. the reference (gap {gap:.3e})")
        object.__setattr__(self, "v_values", _freeze(v))
        object.__setattr__(self, "reference", _freeze(reference))

    @property
    def dim(self) -> int:
        return self.v_values.size

    @property
    def v_min(self) -> float:
        return float(self.v_values.min())

    @property
    def v_osc(self) -> float:
        return osc(self.v_values)

    def sublevel_mass(self, threshold: float) -> float:
        """Reference mass of ``{V <= threshold}``."""
        return float(self.reference[self.v_values <= threshold].sum())


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


def metropolis_kernels(problem: GibbsProblem, betas) -> np.ndarray:
    """Annealing transitions at each inverse temperature of ``betas``, as a
    (k, d, d) stack of rows: off-diagonal ``K(x,y) min(1, e^{-beta
    (V(y)-V(x))})`` with the rejected mass folded into the diagonal, and
    each row divided once by its sum, as :class:`KernelMatrix` does."""
    betas = np.asarray(betas, dtype=np.float64)
    if np.any(betas < 0):
        raise InputError("inverse temperature must be >= 0")
    v, diag = problem.v_values, np.arange(problem.dim)
    climb = v[None, :] - v[:, None]
    rows = problem.proposal.rows * np.minimum(1.0, np.exp(-betas[:, None, None] * climb))
    rows[:, diag, diag] = 0.0
    rows[:, diag, diag] = 1.0 - rows.sum(axis=-1)
    return rows / rows.sum(axis=-1, keepdims=True)


def gibbs_measure(problem: GibbsProblem, beta: float) -> np.ndarray:
    """Exact normalized ``exp(-beta V) m`` (max-shifted for stability), as
    a (d,) law."""
    if beta < 0:
        raise InputError("inverse temperature must be >= 0")
    log_w = -beta * problem.v_values
    log_w = log_w - log_w.max()
    return normalized_law(np.exp(log_w) * problem.reference)


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

    ``delta = sum_y min_x K^k0(x,y)``, the mass every row shares, with
    ``nu`` that common part normalized; fails when the columns share no mass
    (e.g. the identity proposal).
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
    gap = _max_climb(problem.proposal.rows > 0, problem.v_values, k0)
    return MinorizationCert(k0=k0, delta=delta, gap_k0=gap)


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
    v_osc, iters = problem.v_osc, []
    mode = schedule.tuning_mode
    for n, delta in enumerate(schedule.deltas, start=1):
        beta_n = schedule.betas[n]
        increment = schedule.delta_cap if mode == "bounded" else delta
        try:
            m_n = bounds.tune_mcmc_iters(
                beta_n, cert.delta, cert.gap_k0, a, mode, increment_osc=increment * v_osc
            )
        except (InputError, BudgetExceededError) as exc:
            exc.args = (f"step {n}: {exc}",)   # the same error, naming its step
            raise
        iters.append(m_n)
    kernels = metropolis_kernels(problem, schedule.betas[1:])
    flow = FlowSpec(
        initial=gibbs_measure(problem, schedule.betas[0]),
        potentials=np.exp(-np.array(schedule.deltas)[:, None] * problem.v_values),
        kernels=kernel_powers(kernels, [cert.k0 * m for m in iters]),
    )
    return IsaFlow(
        problem=problem, flow=flow, schedule=schedule, cert=cert, a=a, mcmc_iters=tuple(iters)
    )


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    """Per-step arrays of the optimizer, steps 1..T in column order."""

    proportions: np.ndarray    # (R, T): particle mass at energy >= V_min + eps
    exact_mass: np.ndarray     # (T,): the same mass under the exact flow law
    gibbs_term: np.ndarray     # (T,): gibbs_tail_bound at beta_n
    thresholds: np.ndarray     # (len(y_values), T): the composite bound per y


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
    evaluate the composite bound.

    ``proportions[r, n-1]`` is the proportion of replicate r's particles at
    energy ``V_min + epsilon_level`` or above after step n, ``exact_mass[n-1]``
    the exact-law mass of the same event, ``gibbs_term[n-1]`` the
    Boltzmann-Gibbs tail bound at beta_n, and ``thresholds[i, n-1]``, for the
    confidence exponent ``y_values[i]``, the bound

        gibbs_tail(beta_n) + (r_i N + r_j y) / N^2

    with the regime's occupation-deviation threshold
    (:func:`~fkips.bounds.deviation_thresholds`).
    """
    if not 0.0 < eps_prime < epsilon_level:
        raise InputError("thresholds must satisfy 0 < eps' < eps")
    problem, schedule, a = isa.problem, isa.schedule, isa.a
    trace = isa.flow.trace
    run = run_counts(isa.flow, n_particles, seed, replicates=replicates)

    v_min = problem.v_min
    tail_set = (problem.v_values >= v_min + epsilon_level).astype(np.float64)
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
    steps = range(1, schedule.horizon + 1)
    gibbs_term = np.array([
        bounds.gibbs_tail_bound(schedule.betas[n], epsilon_level, eps_prime, m_eps_prime)
        for n in steps
    ])
    thresholds = gibbs_term + np.array([
        [bounds.deviation_thresholds(mode, a, g, n_particles, n, y)[0] for n in steps]
        for y in y_values
    ]).reshape(len(y_values), len(steps))
    return OptimizeResult(
        proportions=proportions,
        exact_mass=np.array([float(trace.etas[n] @ tail_set) for n in steps]),
        gibbs_term=gibbs_term,
        thresholds=thresholds,
    )
