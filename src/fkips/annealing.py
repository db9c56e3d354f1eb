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

A schedule is a (T+1,) array of inverse temperatures and a mode word,
``bounded``, ``decreasing`` or ``constant``: :func:`build_isa_flow` checks
the increments against the mode and tunes each m_n by the bounded rule
(``bounded`` and ``constant``) or the decreasing one.

Every annealing kernel is built as one stack: :func:`metropolis_kernels`
gives the (k, d, d) rows of K_beta for a whole vector of inverse
temperatures in one broadcast expression, and
:func:`~fkips.measures.kernel_powers` raises the stack to its iteration
counts in one loop.  :func:`annealed_flow` builds the flow of the tuned
schedule and of the adaptive reference schedule alike; it and the
annealing checks each make one call of each, and adaptive mutation one per
block of replicates and step.
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
    (k, d, d) stack of rows: off-diagonal ``K(x,y) e^{-beta max(V(y)-V(x),
    0)}``, which is ``K(x,y) min(1, e^{-beta (V(y)-V(x))})`` bit for bit
    without an overflow, with the rejected mass folded into the diagonal,
    and each row divided once by its sum, as :class:`KernelMatrix` does."""
    betas = np.asarray(betas, dtype=np.float64)
    if np.any(betas < 0):
        raise InputError("inverse temperature must be >= 0")
    v, diag = problem.v_values, np.arange(problem.dim)
    climb = np.maximum(v[None, :] - v[:, None], 0.0)
    with np.errstate(over="ignore"):   # beta * climb past float64: accepted w.p. 0
        rows = problem.proposal.rows * np.exp(-betas[:, None, None] * climb)
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


def annealed_flow(problem: GibbsProblem, betas, deltas, iterations) -> FlowSpec:
    """The annealed flow from the Gibbs law at ``betas[0]``: step n reweights
    by ``exp(-Delta_n V)`` and moves by ``K_{beta_n}`` iterated
    ``iterations[n-1]`` times.  ``betas`` holds beta_0..beta_T and ``deltas``
    the T increments as the caller computed them, so a schedule built by
    summing its increments keeps the bits of both."""
    return FlowSpec(
        gibbs_measure(problem, betas[0]),
        np.exp(-np.asarray(deltas, dtype=np.float64)[:, None] * problem.v_values),
        kernel_powers(metropolis_kernels(problem, betas[1:]), iterations),
    )


@dataclass(frozen=True, eq=False)
class IsaFlow:
    """Tuned annealing flow: the flow spec, its read-only (T+1,) inverse
    temperatures, the tuning ``rule`` (``"bounded"`` or ``"decreasing"``)
    with the increment cap ``delta_cap`` the bounded rule reads, and each
    step's tuned MCMC iteration count m_n."""

    problem: GibbsProblem
    flow: FlowSpec
    betas: np.ndarray
    rule: str
    delta_cap: float
    cert: MinorizationCert
    a: float
    mcmc_iters: tuple

    def ratios(self):
        """The potential-ratio cap e^{delta_cap osc V} under the bounded
        rule, else each step's ratio e^{Delta_n osc V}: the ``g`` that
        :func:`~fkips.bounds.deviation_thresholds` reads."""
        if self.rule == "bounded":
            return math.exp(self.delta_cap * self.problem.v_osc)
        return [math.exp(d * self.problem.v_osc) for d in np.diff(self.betas).tolist()]


def build_isa_flow(
    problem: GibbsProblem, betas, mode: str, cert: MinorizationCert, a: float,
    declared_delta: float | None = None,
) -> IsaFlow:
    """The annealed flow of the non-decreasing schedule ``betas`` (beta_0..
    beta_T) with tuned MCMC iteration counts m_n.  ``mode`` is checked to
    1e-12 and picks the tuning rule:

    * ``bounded``: no increment above ``declared_delta`` (the largest
      increment when None); the bounded rule at that cap;
    * ``decreasing``: non-increasing increments; the decreasing rule at
      each step's own increment;
    * ``constant``: equal increments; the bounded rule at the largest.

    Step n carries potential ``exp(-Delta_n V)`` and kernel
    ``K_{beta_n}^(k0 m_n)`` (:func:`annealed_flow`).
    """
    betas = _freeze(np.array(betas, dtype=np.float64, ndmin=1))
    if betas.ndim != 1 or betas.size < 1:
        raise InputError("schedule needs at least beta_0")
    deltas = np.diff(betas)
    if np.any(deltas < 0):
        raise InputError("inverse temperatures must be non-decreasing")
    if mode not in ("bounded", "decreasing", "constant"):
        raise InputError(f"unknown schedule mode {mode!r}")
    if declared_delta is not None and mode != "bounded":
        raise InputError(f"declared_delta is read in bounded mode, not {mode}")
    delta_cap = float(deltas.max()) if deltas.size else 0.0
    if declared_delta is not None:
        if delta_cap > declared_delta + 1e-12:
            raise InputError("an increment exceeds the declared cap")
        delta_cap = float(declared_delta)
    if mode == "decreasing" and np.any(deltas[1:] > deltas[:-1] + 1e-12):
        raise InputError("increments must be non-increasing")
    if mode == "constant" and deltas.size and delta_cap - float(deltas.min()) > 1e-12:
        raise InputError("constant-step increments must be equal")
    rule = "decreasing" if mode == "decreasing" else "bounded"
    v_osc, iters = problem.v_osc, []
    for n, (beta_n, delta) in enumerate(zip(betas[1:].tolist(), deltas.tolist()), start=1):
        increment = delta if rule == "decreasing" else delta_cap
        try:
            iters.append(bounds.tune_mcmc_iters(
                beta_n, cert.delta, cert.gap_k0, a, rule, increment_osc=increment * v_osc
            ))
        except (InputError, BudgetExceededError) as exc:
            exc.args = (f"step {n}: {exc}",)   # the same error, naming its step
            raise
    flow = annealed_flow(problem, betas, deltas, [cert.k0 * m for m in iters])
    return IsaFlow(problem, flow, betas, rule, delta_cap, cert, a, tuple(iters))


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
    problem, a = isa.problem, isa.a
    trace = isa.flow.trace
    v_min = problem.v_min
    tail_set = (problem.v_values >= v_min + epsilon_level).astype(np.float64)
    m_eps_prime = problem.sublevel_mass(v_min + eps_prime)
    if m_eps_prime <= 0:
        raise InputError("reference mass of the eps' sub-level set is zero")

    # every bound first, so a bad input is refused before any replicate is drawn
    betas, g = isa.betas.tolist(), isa.ratios()
    steps = range(1, len(betas))
    gibbs_term = np.array([
        bounds.gibbs_tail_bound(betas[n], epsilon_level, eps_prime, m_eps_prime) for n in steps
    ])
    thresholds = gibbs_term + np.array([
        [bounds.deviation_thresholds(isa.rule, a, g, n_particles, n, y)[0] for n in steps]
        for y in y_values
    ]).reshape(len(y_values), len(steps))

    run = run_counts(isa.flow, n_particles, seed, replicates=replicates)
    return OptimizeResult(
        # a per-row sum of whole counts: exact, whatever R is
        proportions=(run.counts[:, 1:] * tail_set).sum(axis=2) / n_particles,
        exact_mass=np.array([float(trace.etas[n] @ tail_set) for n in steps]),
        gibbs_term=gibbs_term,
        thresholds=thresholds,
    )
