"""Adaptive-temperature interacting annealing.

Instead of a fixed schedule, each selection step solves for the increment
that pins the ensemble's mean selection weight to a target:

    Delta solves   lambda^N(Delta) = mean_i exp(-Delta V(x_i)) = epsilon

so an expected fraction ``epsilon`` of particles is kept in place.
:func:`kappa_solve` finds the root by Newton's method from Delta = 0,
vectorized over rows: lambda is convex and decreasing, so the iterates rise
monotonically to the root, and a handful of iterations reach the tolerance.
The same equation on the exact flow laws defines a deterministic reference
schedule (:func:`theoretical_adaptive_flow`) whose mass products decay
geometrically with ratio epsilon; the particle scheme is a stochastic
perturbation of that reference, and its deviation is controlled by the
per-step constants

    c_n = V_max exp(Delta_n V_max) / (epsilon * eta_{n-1}(V))

through the triangle of estimates implemented in
:func:`perturbation_check`, :func:`l2_error_check` and
:func:`concentration_check`.  These checks, and
:func:`khintchine_conditional_check`, return a
:class:`~fkips.bounds.VerifyReport` of :class:`~fkips.bounds.CheckRow`
records, as the harness verifiers do; the first three reduce a whole
replicated run as those do, through :mod:`fkips.testfns` and
:meth:`~fkips.bounds.CheckRow.exceedance`.

The scheme is the annealed transition with its potential exp(-Delta V)
(and, in adaptive mutation mode, its kernel) chosen from the current
occupation measure, so it runs as a step rule in the count loop of
:mod:`fkips.engine`: :func:`run_adaptive_counts` steps the occupation
counts of a block of replicates per numpy call and serves every caller.
Kernels are built as stacks, by
:func:`~fkips.annealing.metropolis_kernels` and
:func:`~fkips.measures.kernel_powers`: once for the whole reference
schedule, and in adaptive mutation mode once per block and step, at the
block's realized inverse temperatures.

Energies must be normalized so declared ``V_min = 0`` (all values
non-negative); the deterministic reference additionally requires strictly
positive energies on the support of the reference measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds
from .annealing import GibbsProblem, annealed_flow, gibbs_measure, metropolis_kernels
from .engine import CountRun, _run_blocks
from .errors import InputError, SolverError
from .flow import FlowSpec
from .measures import _freeze, kernel_powers
from .testfns import deviations, l2_level, means, osc1_dictionary


@dataclass(frozen=True, eq=False)
class LambdaCurve:
    """Mean selection weights ``lambda(x) = sum_i w_i exp(-x v_i)``.

    ``weights`` is one row of m weights or a (k, m) stack of rows against the
    same m energies; each row is normalized, so ``lambda(0) = 1``.  Every
    curve is convex, and strictly decreasing whenever some of its mass sits
    at positive energy.
    """

    v_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v_values, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if v.ndim != 1 or v.size == 0 or w.ndim not in (1, 2) or w.shape[-1] != v.size:
            raise InputError("curve needs 1-d energies and matching rows of weights")
        if np.any(v < 0):
            raise InputError("energies must be >= 0 (declared V_min = 0)")
        object.__setattr__(self, "v_values", v)
        object.__setattr__(self, "weights", w / w.sum(axis=-1, keepdims=True))

    def value(self, x, slope: bool = False):
        """lambda at x: a float for one row, else one value per row at the
        row's own x.  With ``slope``, also returns lambda'(x).

        Each row is an elementwise product and a sum over that row alone,
        so its value does not depend on the other rows.
        """
        terms = self.weights * np.exp(-np.asarray(x, dtype=np.float64)[..., None] * self.v_values)
        lam = terms.sum(axis=-1)
        lam = float(lam) if lam.ndim == 0 else lam
        if not slope:
            return lam
        grad = -(terms * self.v_values).sum(axis=-1)
        return lam, float(grad) if grad.ndim == 0 else grad


# Smallest accepted solver tolerance: a curve value is a sum of m rounded
# float64 terms near epsilon <= 1, so a residual below about 1e-13 may be
# out of reach of the arithmetic.
TOL_FLOOR = 1e-13
# Newton iterations before the solver gives up and raises.
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class KappaResult:
    """Solved increments; floats for a one-row curve, else arrays of rows."""

    delta: float
    saturated: bool
    lam: float          # lambda at the returned increment
    iterations: int     # Newton iterations taken


def kappa_solve(
    curve: LambdaCurve,
    epsilon: float,
    tol: float = 1e-10,
    delta_max: float = 1e6,
    *,
    step: int | None = None,
) -> KappaResult:
    """Invert the mean-weight curve: find Delta with ``lambda(Delta) = eps``,
    for every row of ``curve`` at once.

    Newton's method starts each row at Delta = 0.  lambda is convex and
    decreasing, so the iterates rise monotonically to the root; a row is
    frozen once ``|lambda - eps| <= tol``.  Iterates are capped at
    ``delta_max``: a row whose curve is still above epsilon there has its
    mass trapped near V = 0 and returns the cap with ``saturated`` set.  A
    row still unconverged after :data:`MAX_ITERATIONS` raises
    :class:`~fkips.errors.SolverError` naming ``step``, Delta and the
    residual.  Every curve evaluation goes through
    :meth:`LambdaCurve.value`.

    ``epsilon = 1`` is the exact boundary solution Delta = 0.
    """
    if not 0.0 < epsilon <= 1.0:
        raise InputError("target mean weight must lie in (0, 1]")
    if not tol >= TOL_FLOOR or delta_max <= 0:
        raise InputError(f"tol must be >= {TOL_FLOOR:g} and delta_max > 0")
    shape = curve.weights.shape[:-1]
    delta = np.zeros(shape)
    saturated = np.zeros(shape, dtype=bool)
    iterations = np.zeros(shape, dtype=np.int64)
    if epsilon == 1.0:
        return _kappa_result(delta, saturated, np.ones(shape), iterations)
    lam, grad = curve.value(delta, slope=True)
    active = np.abs(lam - epsilon) > tol
    for _ in range(MAX_ITERATIONS):
        if not np.any(active):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            # lambda' < 0 unless all of a row's mass sits at V = 0; such a
            # flat row steps to the cap and saturates there
            newton = np.minimum(delta + (lam - epsilon) / np.abs(grad), delta_max)
        delta = np.where(active, newton, delta)
        iterations += active
        # a frozen row keeps its Delta, so it re-evaluates to the same values
        lam, grad = curve.value(delta, slope=True)
        capped = active & (delta >= delta_max) & (lam > epsilon)
        saturated |= capped
        active &= ~capped & (np.abs(lam - epsilon) > tol)
    if np.any(active):
        r = int(np.argmax(np.ravel(active)))
        residual = np.abs(lam - epsilon)
        raise SolverError(
            step, float(np.ravel(delta)[r]), float(np.ravel(residual)[r]), MAX_ITERATIONS
        )
    return _kappa_result(delta, saturated, lam, iterations)


def _kappa_result(delta, saturated, lam, iterations) -> KappaResult:
    if np.ndim(delta) == 0:
        return KappaResult(float(delta), bool(saturated), float(lam), int(iterations))
    return KappaResult(delta, saturated, lam, iterations)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Adaptive-run parameters.

    ``epsilon`` is the target kept fraction; ``tol`` the curve tolerance of
    the increment solver; ``delta_max`` caps increments (``None`` resolves
    to 50/osc(V)); ``mutation_mode`` selects the analyzed variant
    ("theoretical": kernels from the deterministic reference schedule) or
    the fully adaptive one ("adaptive": kernels at the realized inverse
    temperature, excluded from bound checks); ``mcmc_iters`` is the number
    of annealing-kernel iterations per mutation.
    """

    epsilon: float
    tol: float = 1e-10
    delta_max: float | None = None
    mutation_mode: str = "theoretical"
    mcmc_iters: int = 1
    beta0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise InputError("epsilon (target kept fraction) must lie in (0, 1)")
        if not self.tol >= TOL_FLOOR:
            raise InputError(
                f"tol must be >= {TOL_FLOOR:g} (float64 cannot resolve a smaller "
                f"curve residual), got {self.tol!r}"
            )
        if self.delta_max is not None and self.delta_max <= 0:
            raise InputError("delta_max must be > 0")
        if self.mutation_mode not in ("theoretical", "adaptive"):
            raise InputError("mutation_mode must be 'theoretical' or 'adaptive'")
        if self.mcmc_iters < 1:
            raise InputError("mcmc_iters must be >= 1")
        if self.beta0 < 0:
            raise InputError("beta0 (initial inverse temperature) must be >= 0")

    def resolved_delta_max(self, v_osc: float) -> float:
        if self.delta_max is not None:
            return self.delta_max
        if v_osc <= 0:
            raise InputError("cannot resolve delta_max for a flat energy")
        return 50.0 / v_osc


@dataclass(frozen=True, eq=False)
class ReferenceSchedule:
    """Deterministic reference: exact laws, increments and step constants.

    ``c`` holds the perturbation constants.  The potential ratios g_n and
    kernel ergodic coefficients b_n are those of the emitted flow,
    ``flow.trace.g`` and ``flow.trace.b``.
    """

    flow: FlowSpec
    deltas: tuple
    etas: np.ndarray     # (T+1, d): the exact laws eta_0 .. eta_T
    c: tuple

    @property
    def horizon(self) -> int:
        return len(self.deltas)

    def hypothesis_levels(self) -> tuple:
        """Per-step products ``b_n g_n (1 + c_n)`` entering the uniform
        concentration hypothesis."""
        trace = self.flow.trace
        return tuple(b * g * (1.0 + c) for g, b, c in zip(trace.g, trace.b, self.c))


def theoretical_adaptive_flow(
    problem: GibbsProblem,
    epsilon: float,
    horizon: int,
    *,
    mcmc_iters: int = 1,
    beta0: float = 0.0,
) -> ReferenceSchedule:
    """Build the deterministic reference schedule on a finite problem.

    Requires every state of positive reference mass to carry strictly
    positive energy (declared minimum 0 not attained on the support), so
    the mean-weight equation always has a root, which is solved to a curve
    tolerance of 1e-12.  Consecutive unnormalized masses of the emitted flow
    contract by exactly epsilon.
    """
    if not 0.0 < epsilon < 1.0:
        raise InputError("epsilon (target kept fraction) must lie in (0, 1)")
    v = problem.v_values
    if np.any(v < 0):
        raise InputError("energies must be >= 0 (declared V_min = 0)")
    if np.any((v <= 0) & (problem.reference > 0)):
        raise InputError("reference measure puts mass at V = 0; reference schedule undefined")
    v_max = float(v.max())
    beta = float(beta0)
    deltas, cs, betas = [], [], [beta]
    etas = [gibbs_measure(problem, beta0)]
    for n in range(horizon):
        eta_prev = etas[-1]
        res = kappa_solve(
            LambdaCurve(v, eta_prev), epsilon, tol=1e-12, delta_max=1e9,
            step=n + 1,
        )
        if res.saturated:
            raise InputError("increment solver saturated on the exact law")
        delta = res.delta
        beta += delta
        betas.append(beta)
        try:
            growth = math.exp(delta * v_max)
        except OverflowError:   # past float64: c_n = inf, as the step rule takes it
            growth = math.inf
        cs.append(v_max * growth / (epsilon * float(eta_prev @ v)))
        deltas.append(delta)
        etas.append(gibbs_measure(problem, beta))
    flow = annealed_flow(problem, betas, deltas, [mcmc_iters] * horizon)
    return ReferenceSchedule(flow, tuple(deltas), _freeze(np.stack(etas)), tuple(cs))


def _reference(problem, config, horizon, reference=None, needed=True):
    """``reference`` or, when it is None and ``needed``, the deterministic
    reference schedule of ``config``; either must cover ``horizon`` steps."""
    if reference is None and needed:
        reference = theoretical_adaptive_flow(
            problem,
            config.epsilon,
            horizon,
            mcmc_iters=config.mcmc_iters,
            beta0=config.beta0,
        )
    if reference is not None and reference.horizon < horizon:
        raise InputError("reference schedule shorter than the requested horizon")
    return reference


@dataclass(frozen=True, eq=False)
class AdaptiveCountRun(CountRun):
    """Occupation counts and per-step records of R replicates of the
    adaptive scheme; arrays have the replicate axis first.

    ``mean_potential`` is lambda^N at the solved increment and
    ``log_gamma1`` accumulates its logarithm.
    """

    delta: np.ndarray            # (R, T) realized increments
    beta: np.ndarray             # (R, T+1) realized inverse temperatures
    c: np.ndarray                # (R, T) perturbation constants
    saturated: np.ndarray        # (R, T) bool
    lambda_residual: np.ndarray  # (R, T) |lambda(Delta) - epsilon|
    iterations: np.ndarray       # (R, T) Newton iterations per solve


def run_adaptive_counts(
    problem: GibbsProblem,
    config: AdaptiveConfig,
    n_particles: int,
    horizon: int,
    seed: int,
    *,
    replicates: int = 1,
    reference: ReferenceSchedule | None = None,
) -> AdaptiveCountRun:
    """Run R replicates of the adaptive scheme on a finite problem through
    their per-state occupation counts.

    The count loop of :func:`~fkips.engine.run_counts` solves every row's
    increment at once by :func:`kappa_solve` on
    ``lambda_r(Delta) = sum_x c_{r,x} exp(-Delta v_x) / N`` and takes
    ``G = exp(-Delta v)`` as both the potential and the keep probability
    (the classic step at eps = 1): it keeps ``Binomial(c_x, G(x))``
    particles per state and redraws the rest as one ``Multinomial`` over
    ``c G``, from the same (seed, block, step, purpose) slots.  The kernel
    is the reference's in theoretical mutation mode, and each row's
    annealing kernel at its realized inverse temperature in adaptive mode,
    so there the law of the counts depends on the realized beta as well.
    Replicate r depends on (seed, r) only.
    """
    plan = _adaptive_plan(problem, config, n_particles, horizon, replicates, reference)
    return _run_blocks(*plan, n_particles, seed)


def _adaptive_plan(problem, config, n_particles, horizon, replicates, reference):
    """The empty run, initial weights and step rule of :func:`run_adaptive_counts`;
    the rule records each row's Delta, beta, c, saturation, residual and iterations."""
    if np.any(problem.v_values < 0):
        raise InputError("energies must be >= 0 (declared V_min = 0)")
    reference = _reference(
        problem, config, horizon, reference, config.mutation_mode == "theoretical"
    )
    shape = (replicates, horizon)
    run = AdaptiveCountRun._allocate(
        n_particles, replicates, horizon, problem.dim,
        delta=np.empty(shape), c=np.empty(shape), lambda_residual=np.empty(shape),
        beta=np.full((replicates, horizon + 1), float(config.beta0)),
        saturated=np.empty(shape, dtype=bool), iterations=np.empty(shape, dtype=np.int64),
    )
    eps, v, v_max = config.epsilon, problem.v_values, float(problem.v_values.max())
    delta_cap = config.resolved_delta_max(problem.v_osc)

    def rule(n, rows, c):
        res = kappa_solve(
            LambdaCurve(v, c), eps, tol=config.tol, delta_max=delta_cap, step=n + 1
        )
        beta = run.beta[rows, n] + res.delta
        if config.mutation_mode == "theoretical":
            kernel_rows = reference.flow.kernels[n]
        else:
            kernel_rows = kernel_powers(
                metropolis_kernels(problem, beta), [config.mcmc_iters] * len(beta)
            )
        if reference is not None:
            eta_v = float(reference.etas[n] @ v)
        else:
            eta_v = (c * v).sum(axis=1) / n_particles
        with np.errstate(over="ignore", divide="ignore"):
            c_n = np.where(eta_v > 0, v_max * np.exp(res.delta * v_max) / (eps * eta_v), np.inf)
        run.delta[rows, n] = res.delta
        run.beta[rows, n + 1] = beta
        run.c[rows, n] = c_n
        run.saturated[rows, n] = res.saturated
        run.lambda_residual[rows, n] = np.abs(res.lam - eps)
        run.iterations[rows, n] = res.iterations
        g = np.exp(-res.delta[:, None] * v)
        return g, g, kernel_rows

    return run, gibbs_measure(problem, config.beta0), rule


# ---------------------------------------------------------------------------
# Verification procedures (finite problems, replicated runs vs exact laws)
# ---------------------------------------------------------------------------


def _d2_estimate(devs: np.ndarray):
    """Per-step :func:`~fkips.testfns.l2_level` of (R, T, K) deviations, with
    a rough 1-sigma error bar on each step's winning dictionary entry."""
    sq = np.square(devs)
    winner = np.take_along_axis(sq, sq.mean(axis=0).argmax(axis=1)[None, :, None], axis=2)
    d2 = l2_level(devs)
    se_m2 = winner[..., 0].std(axis=0, ddof=1) / math.sqrt(devs.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        return d2, np.where(d2 > 0, se_m2 / (2.0 * d2), 0.0)


def perturbation_check(
    problem: GibbsProblem,
    config: AdaptiveConfig,
    n_particles: int,
    horizon: int,
    seed: int,
    replicates: int,
) -> bounds.VerifyReport:
    """Empirically verify the two perturbation estimates with exact constants.

    Over replicated adaptive runs (theoretical mutation mode), per step n:

    * reweighting control: the ratio potential ``H = exp((Delta - Delta^N) V)``
      moves the empirical law by at most
          d2(psi_H(eta^N), eta^N) <= c * d2(eta^N, eta)
      with ``c = V_max exp(Delta V_max) / (eps eta(V))``, and hence
          d2(psi_H(eta^N), eta) <= (1 + c) * d2(eta^N, eta);
    * one-step stability: the exact flow map phi contracts
          d2(phi(eta^N), phi(eta)) <= g * b * d2(eta^N, eta).

    Distances are dictionary estimates.  Each comparison is one row,
    ``reweighting-control``, ``reweighting-control-combined`` or
    ``one-step-stability`` at scope ``n=<step>``, whose ``rhs`` includes a
    4-sigma Monte Carlo allowance.
    """
    reference = _reference(problem, config, horizon)
    run = run_adaptive_counts(
        problem, replace(config, mutation_mode="theoretical"), n_particles, horizon, seed,
        replicates=replicates, reference=reference,
    )
    base = run.histograms[:, :-1]   # eta^N_n for n = 0..T-1
    # psi_H reweighting of each replicate's occupation measure
    rew = base * np.exp((np.array(reference.deltas) - run.delta)[..., None] * problem.v_values)
    rew /= rew.sum(axis=2, keepdims=True)
    # exact flow map applied to each occupation measure
    pushed, flow = np.empty_like(base), reference.flow
    for n in range(horizon):
        weighted = base[:, n] * flow.potentials[n]
        pushed[:, n] = (weighted / weighted.sum(axis=1, keepdims=True)) @ flow.kernels[n]
    fdict = osc1_dictionary(problem.dim)
    d2_base, se_base = _d2_estimate(deviations(base, reference.etas[:-1], fdict))
    d2_rew_self, se_rs = _d2_estimate(means(rew - base, fdict))
    d2_rew_eta, se_re = _d2_estimate(deviations(rew, reference.etas[:-1], fdict))
    d2_push, se_p = _d2_estimate(deviations(pushed, reference.etas[1:], fdict))
    trace = flow.trace
    rows = []
    for n in range(horizon):
        c_n = reference.c[n]
        gb = trace.g[n] * trace.b[n]
        scope = f"n={n + 1}"
        rows += [
            bounds.CheckRow.compare(
                "reweighting-control", scope, d2_rew_self[n],
                c_n * d2_base[n] + 4.0 * (se_rs[n] + c_n * se_base[n]),
            ),
            bounds.CheckRow.compare(
                "reweighting-control-combined", scope, d2_rew_eta[n],
                (1.0 + c_n) * d2_base[n] + 4.0 * (se_re[n] + (1.0 + c_n) * se_base[n]),
            ),
            bounds.CheckRow.compare(
                "one-step-stability", scope, d2_push[n],
                gb * d2_base[n] + 4.0 * (se_p[n] + gb * se_base[n]),
            ),
        ]
    return bounds.VerifyReport(rows=tuple(rows))


def l2_error_check(
    problem: GibbsProblem,
    config: AdaptiveConfig,
    n_particles: int,
    horizon: int,
    seed: int,
    replicates: int,
) -> bounds.VerifyReport:
    """Replicate-estimated d2 against the accumulated envelope bound
    ``B_2 e~_n / sqrt(N)`` with every constant exact: one ``adaptive-l2``
    row per step n = 0..horizon, with no Monte Carlo allowance."""
    reference = _reference(problem, config, horizon)
    hists = run_adaptive_counts(
        problem, config, n_particles, horizon, seed, replicates=replicates, reference=reference
    ).histograms
    d2 = l2_level(deviations(hists, reference.etas, osc1_dictionary(problem.dim))).tolist()
    b2 = bounds.bp_constant(2)
    # the envelope e~_n = 1 + g_n b_n (1 + c_n) e~_{n-1}, from e~_0 = 1
    e_tilde = [1.0]
    for level in reference.hypothesis_levels():
        e_tilde.append(1.0 + level * e_tilde[-1])
    rows = [
        bounds.CheckRow.compare("adaptive-l2", f"n={n}", lhs, b2 * env / math.sqrt(n_particles))
        for n, (lhs, env) in enumerate(zip(d2, e_tilde))
    ]
    return bounds.VerifyReport(rows=tuple(rows))


def khintchine_conditional_check(
    problem: GibbsProblem,
    config: AdaptiveConfig,
    n_particles: int,
    freeze_steps: int,
    seed: int,
) -> bounds.VerifyReport:
    """Conditional one-step L2 error from a frozen ensemble vs B_2/sqrt(N).

    Freezes the counts c of replicate 0 after ``freeze_steps`` adaptive
    steps.  Given c the next step's particles move independently, so the L2
    deviation of eta^N(f) from its conditional mean is exactly
    ``sqrt(sum_x c_x Var_{p_x}(f)) / N`` (:func:`_conditional_variances`).
    Test functions have sup norm 1/2, so the bound B_2/sqrt(N) applies with
    a factor-2 margin.  The report has one ``adaptive-khintchine-conditional``
    row at the next step, whose lhs is the dictionary sup of that deviation.
    """
    reference = _reference(problem, config, freeze_steps + 1)
    frozen = run_adaptive_counts(
        problem, config, n_particles, freeze_steps, seed, reference=reference
    ).counts[0, -1]
    res = kappa_solve(
        LambdaCurve(problem.v_values, frozen), config.epsilon, tol=config.tol,
        delta_max=config.resolved_delta_max(problem.v_osc), step=freeze_steps + 1,
    )
    var = _conditional_variances(
        frozen, np.exp(-res.delta * problem.v_values), reference.flow.kernels[freeze_steps],
        osc1_dictionary(problem.dim),
    )
    row = bounds.CheckRow.compare(
        "adaptive-khintchine-conditional", f"n={freeze_steps + 1}",
        math.sqrt(var.max()) / n_particles, bounds.bp_constant(2) / math.sqrt(n_particles),
    )
    return bounds.VerifyReport(rows=(row,))


def _conditional_variances(counts, g, kernel_rows, tables) -> np.ndarray:
    """N^2 Var(eta^N(f)) = sum_x c_x Var_{p_x}(f) one step on from the counts
    c, for each of the (K, d) ``tables``.  As in the count engine, a particle
    at x is kept with probability g(x), else redrawn from s = c g / sum c g,
    then moved by M, so it ends with law p_x = g(x) M(x, .) + (1 - g(x)) s M,
    independently of the others.  Each variance sums non-negative terms."""
    pool = counts * g
    laws = g[:, None] * kernel_rows + (1.0 - g)[:, None] * ((pool / pool.sum()) @ kernel_rows)
    spread = tables[:, None, :] - (laws @ tables.T).T[:, :, None]   # f(y) - p_x f
    return (laws * np.square(spread)).sum(axis=2) @ counts


def concentration_check(
    problem: GibbsProblem,
    config: AdaptiveConfig,
    n_grid,
    horizon: int,
    replicates: int,
    a: float,
    s_grid,
    y_grid,
    seed: int,
) -> bounds.VerifyReport:
    """Exceedance frequencies of the adaptive scheme vs both uniform bounds.

    The first row, ``adaptive-hypothesis``, verifies ``b_n g_n (1 + c_n) <= a``
    with exact constants from the deterministic reference; its ``lhs`` is the
    largest level.  When the hypothesis fails it is the only row: status
    ``hypothesis-unmet`` at scope ``step=<first failing step>``, and the
    bound comparison is refused.  Otherwise, over the population grid,
    per-step dictionary deviations are compared against

    * the tail-shape bound at each s in ``s_grid`` (``adaptive-tail-shape``);
    * the threshold ``2 (1 + sqrt(y)) / ((1-a) sqrt(N))`` at each y >= 1,
      whose tail level is ``exp(-y)`` (``adaptive-threshold``),

    at scope ``N=<N>,n=<step>,level=<s or y>``; each row's ``rhs`` is the
    bound plus three binomial standard errors of Monte Carlo allowance.
    """
    reference = _reference(problem, config, horizon)
    levels = reference.hypothesis_levels()
    top = max(levels, default=0.0)   # no steps, no level
    bad = [i for i, lvl in enumerate(levels) if not lvl <= a]   # a NaN level is unmet
    if bad:
        row = bounds.CheckRow(
            "adaptive-hypothesis", f"step={bad[0] + 1}", top, a, "hypothesis-unmet"
        )
        return bounds.VerifyReport(rows=(row,))
    fdict = osc1_dictionary(problem.dim)
    rows = [bounds.CheckRow("adaptive-hypothesis", "all", top, a, "pass")]
    for n_particles in n_grid:
        n_particles = int(n_particles)
        hists = run_adaptive_counts(
            problem, config, n_particles, horizon, seed, replicates=replicates,
            reference=reference,
        ).histograms
        # per replicate and step, sup over the dictionary
        worst = np.abs(deviations(hists, reference.etas, fdict)).max(axis=2)
        for n in range(1, horizon + 1):
            for s in s_grid:
                rows.append(bounds.CheckRow.exceedance(
                    "adaptive-tail-shape", f"N={n_particles},n={n},level={float(s):.17g}",
                    worst[:, n] >= s, bounds.adaptive_tail_bound(float(s), n_particles, a),
                ))
            for y in y_grid:
                thr = bounds.adaptive_deviation_threshold(float(y), n_particles, a)
                rows.append(bounds.CheckRow.exceedance(
                    "adaptive-threshold", f"N={n_particles},n={n},level={float(y):.17g}",
                    worst[:, n] >= thr, math.exp(-float(y)),
                ))
    return bounds.VerifyReport(rows=tuple(rows))
