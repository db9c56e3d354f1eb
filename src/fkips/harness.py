"""Experiment orchestration: replicate runs, bound verification and CSV
emission, on a config built by :mod:`fkips.config` (whose
:func:`~fkips.config.parse_config` and :class:`~fkips.config.ExperimentConfig`
are re-exported here).

A classic ``verify-bounds`` runs the oracle identity, the semigroup lemmas
and one regime check, :func:`check_regime`, whichever the ``[checks]
regime``.  The regimes differ only in their hypothesis rows, their composed
caps (:func:`composed_caps`) and their threshold formulas
(:func:`fkips.bounds.deviation_thresholds`), and both write their rows in
one order: hypothesis, composed caps, L2 for n = 0..T, occupation deviation
(y-major), then mass ratio (y-major, ``+`` before ``-``).

Every output is a deterministic function of (config, seed): replicates use
counter-based streams keyed by (seed, block, step, purpose) whose rows do
not depend on the replicate count (see :mod:`fkips.engine`), aggregation
folds in replicate order, and CSV cells print floats at 17 significant
digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import bounds
from .bounds import CheckRow, VerifyReport
# parse_config and ExperimentConfig are re-exported: perfbench/ reaches both here
from .config import _FLOAT_FMT, ExperimentConfig, _fmt, parse_config  # noqa: F401
from .engine import run_counts
from .errors import InputError
from .flow import FlowSpec, check_semigroup_lemmas, excess, worst_excess
from .measures import dobrushin
from .testfns import deviations, l2_level, means, osc1_dictionary

# annealing and adaptive are imported where they are called, so a classic
# run never loads them
if TYPE_CHECKING:
    from .annealing import IsaFlow


# ---------------------------------------------------------------------------
# Replicate execution and aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReplicateStats:
    """Per-(step, statistic) replicate summaries as (T+1, K) arrays."""

    names: tuple
    mean: np.ndarray
    se: np.ndarray
    quantiles: np.ndarray   # (3, T+1, K): q10, q50, q90
    replicates: int


def _quantiles(x, qs=(0.1, 0.5, 0.9)) -> np.ndarray:
    """``np.quantile(x, qs, axis=-1)`` (linear method), bit for bit.

    It repeats numpy's steps: virtual index v = (n - 1) q, neighbours
    floor(v) and floor(v) + 1, or the top value twice, indexed -1, when
    v >= n - 1; one ``np.partition`` at numpy's own kth set; then
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5, and NaN wherever
    the top value is NaN.  A sort would order tied -0.0 and 0.0 otherwise
    than the partition does and change the sign of some zero quantiles.
    """
    n = x.shape[-1]
    picks = []   # (lo, hi, t) per quantile
    for q in qs:
        v = (n - 1) * q
        lo = math.floor(v)
        # numpy's t is v minus the lower index, which is -1 at the top
        picks.append((-1, -1, v + 1) if v >= n - 1 else (lo, lo + 1, v - lo))
    kth = sorted({0, -1, *(i for lo, hi, _ in picks for i in (lo, hi))})
    part = np.partition(x, kth, axis=-1)
    out = np.empty((len(qs),) + x.shape[:-1])
    for row, (lo, hi, t) in zip(out, picks):
        a, b = part[..., lo], part[..., hi]
        row[...] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    out[:, np.isnan(part[..., -1])] = np.nan
    return out


def aggregate(values, stat_names) -> ReplicateStats:
    """Deterministic fold of (R, T+1, K) per-replicate values into summaries.

    The values of each (step, statistic) are laid out as one contiguous run
    in replicate order before reducing, so every sum is numpy's pairwise sum
    of that 1-d run and the summaries equal a fold of one column at a time.
    The quantiles are ``np.quantile``'s, bit for bit, but computed by
    :func:`_quantiles`: ``np.quantile`` calls ``np.unique``, whose first
    call imports ``numpy.ma``, a module nothing else in a run needs.
    """
    x = np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=np.float64), 0, 2))
    r = x.shape[-1]
    se = x.std(axis=-1, ddof=1) / math.sqrt(r) if r > 1 else np.zeros(x.shape[:-1])
    return ReplicateStats(
        names=tuple(stat_names),
        mean=x.mean(axis=-1),
        se=se,
        quantiles=_quantiles(x),
        replicates=r,
    )


@dataclass(frozen=True)
class ExperimentResult:
    stats: ReplicateStats
    raw_csv: str
    stats_csv: str
    oracle_csv: str | None


def _stat_values(run, head, tables):
    """(R, T+1, K) values of a count run: the ``head`` columns, given as
    (name, (R, T+1) array) pairs, then ``est_i``, the mean of table i."""
    names = [name for name, _ in head] + [f"est_{i}" for i in range(len(tables))]
    columns = [col for _, col in head] + list(
        np.moveaxis(means(run.histograms, tables), 2, 0)
    )
    return np.stack(columns, axis=2), names


def _with_first(value, per_step):
    """Prefix the (R, T) per-step values with ``value`` at step 0."""
    return np.hstack([np.full((per_step.shape[0], 1), value), per_step])


def _classic_values(flow, cfg, horizon, tables):
    """Per-replicate statistics of a finite flow, from one count run."""
    run = run_counts(
        flow, cfg.n_particles, cfg.seed, replicates=cfg.replicates, horizon=horizon,
        eps=cfg.eps_mode,
    )
    head = [
        ("log_gamma1", run.log_gamma1),
        ("mean_potential", _with_first(math.nan, run.mean_potential)),
        ("kept_fraction", _with_first(math.nan, run.kept_fraction)),
        ("ess", _with_first(float(cfg.n_particles), run.ess)),
    ]
    return _stat_values(run, head, tables)


def _adaptive_values(cfg):
    """Per-replicate statistics of the adaptive scheme, from one count run."""
    from .adaptive import run_adaptive_counts

    tables = tuple(osc1_dictionary(cfg.problem.dim, cfg.n_test_functions))
    run = run_adaptive_counts(
        cfg.problem, cfg.adaptive_config, cfg.n_particles, cfg.steps, cfg.seed,
        replicates=cfg.replicates,
    )
    head = [
        ("log_gamma1", run.log_gamma1),
        ("delta", _with_first(0.0, run.delta)),
        ("beta", run.beta),
        ("c", _with_first(0.0, run.c)),
        ("kept_fraction", _with_first(math.nan, run.kept_fraction)),
        ("saturated", _with_first(0.0, run.saturated.astype(np.float64))),
    ]
    return _stat_values(run, head, tables)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all replicates and aggregate.

    Every kind runs all its replicates through one block-wise count-engine
    call: :func:`~fkips.engine.run_counts` for classic and isa flows,
    :func:`~fkips.adaptive.run_adaptive_counts` for the adaptive scheme.
    The ``threads`` config key has no effect.
    """
    flow = cfg.flow
    oracle_csv = None
    if cfg.kind in ("classic", "isa"):
        horizon = cfg.horizon()
        tables = tuple(osc1_dictionary(flow.dim, cfg.n_test_functions))
        values, stat_names = _classic_values(flow, cfg, horizon, tables)
        oracle_csv = _oracle_csv(flow.trace, horizon, tables)
    else:
        values, stat_names = _adaptive_values(cfg)
    stats = aggregate(values, stat_names)
    return ExperimentResult(
        stats=stats,
        raw_csv=_raw_csv(values, stat_names),
        stats_csv=_stats_csv(stats),
        oracle_csv=oracle_csv,
    )


def _csv_line(cells) -> str:
    # every cell is an int, a float or a plain name, so none needs quoting
    return ",".join(cells) + "\n"


def _raw_csv(values, stat_names) -> str:
    """One row per (replicate, step) of the (R, T+1, K) values, each written
    by one ``%`` template; ``%.17g`` prints a float as ``format(x, ".17g")``."""
    values = np.asarray(values, dtype=np.float64)
    row = ",".join(["%d", "%d"] + ["%" + _FLOAT_FMT] * values.shape[2]) + "\n"
    lines = [_csv_line(["replicate", "step", *stat_names])]
    lines += [
        row % (rep, step, *cells)
        for rep, steps in enumerate(values.tolist())
        for step, cells in enumerate(steps)
    ]
    return "".join(lines)


def _stats_csv(stats: ReplicateStats) -> str:
    lines = [_csv_line(["step", "statistic", "mean", "se", "q10", "q50", "q90"])]
    cells = np.stack([stats.mean, stats.se, *stats.quantiles], axis=2).tolist()
    for step, row in enumerate(cells):
        for name, summary in zip(stats.names, row):
            lines.append(
                _csv_line([str(step), name, *(format(x, _FLOAT_FMT) for x in summary)])
            )
    return "".join(lines)


def _oracle_csv(trace, horizon, tables, column="exact_est") -> str:
    """Exact mass and the exact mean of each table, steps 0..horizon; the
    table columns are named ``{column}_0, {column}_1, ...``."""
    lines = [_csv_line(
        ["step", "log_gamma1", "gamma1"] + [f"{column}_{i}" for i in range(len(tables))]
    )]
    for n, eta in enumerate(trace.etas[: horizon + 1]):
        lines.append(_csv_line(
            [str(n), _fmt(trace.log_gamma1[n]), _fmt(trace.gamma1[n])]
            + [_fmt(eta.expect(t)) for t in tables]
        ))
    return "".join(lines)


def emit_csv(text, path) -> None:
    """Write CSV text to a file."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


def _known_regime(regime: str) -> None:
    if regime not in ("bounded", "decreasing"):
        raise InputError(f"unknown regime {regime!r}: expected 'bounded' or 'decreasing'")


def composed_cap_excess(flow: FlowSpec, regime: str, a: float, g_sup=None):
    """The :func:`~fkips.flow.excess` of every composed cap of
    :func:`composed_caps`, as :func:`~fkips.flow.worst_excess` reads them.

    Entry ``[group, n, T - p, slot]`` is a cap at (p, n).  Group 0 holds
    ``g_pn*b_pn``; group 1 holds the regime's caps, ``g_pn`` in slot 0 and,
    in the bounded regime, ``b_p*g_(p-1)n`` in slot 1.  C order thus runs
    every ``g_pn*b_pn`` cap, then the regime's caps pair by pair, each with
    n ascending and p descending.
    """
    _known_regime(regime)
    t, g, b = flow.horizon, flow.table.g, flow.table.b
    p, n = np.indices(g.shape)
    unused, unchecked = np.zeros_like(g), np.zeros(g.shape, dtype=bool)
    powers = np.array([a ** k for k in range(t + 1)])
    # n - p < 0 only below the diagonal, which is never checked
    stability = excess(g * b, powers[n - p])
    if regime == "bounded":
        caps = excess(g, g_sup + a)
        # b_p pairs with g_{p-1,n}; trace.b is 0-indexed by step, row 0 unread
        mixed = excess(np.append(1.0, flow.trace.b)[:, None] * np.roll(g, 1, axis=0), a)
        checked = [p <= n, (1 <= p) & (p <= n)]
    else:
        # trace.g is 0-indexed: entry p is the step-(p+1) ratio, the cap of g_{p,n}
        alpha = a / (1.0 - a)
        caps = excess(g, np.array([x ** (1.0 + alpha) for x in flow.trace.g] + [1.0])[:, None])
        mixed = unused
        checked = [p < n, unchecked]
    excesses = np.stack([[stability, unused], [caps, mixed]])
    # a p = n pair is the identity 1 = a^0, kept only where it is the only pair
    checked = np.stack([[p < n if t else p <= n, unchecked], checked])
    names = (("g_pn*b_pn", None), ("g_pn", "b_p*g_(p-1)n"))
    return (
        excesses.transpose(0, 3, 2, 1)[:, :, ::-1],
        checked.transpose(0, 3, 2, 1)[:, :, ::-1],
        lambda group, n, q, slot: f"{names[group][slot]},p={t - q},n={n}",
    )


def composed_caps(flow: FlowSpec, regime: str, a: float, g_sup=None):
    """Exact composed-quantity caps implied by a regime's hypothesis.  Returns
    :func:`~fkips.flow.worst_excess`'s (ok, worst excess, scope).

    Both regimes cap ``g_{p,n} b_{p,n} <= a^(n-p)`` for p < n.  A p = n pair
    is the identity ``1 = a^0`` with excess exactly 0, which would pin every
    passing row's worst excess at 0; it is kept only at horizon 0, where it
    is the only pair.  The ``"bounded"`` (uniform) regime adds
    ``g_{p,n} <= g_sup + a`` and ``b_p g_{p-1,n} <= a``; the
    ``"decreasing"`` one adds ``g_{p,n} <= g_(p+1)^(1+alpha)`` for p < n,
    alpha = a/(1-a), and does not read ``g_sup``.  A cap holds when
    ``lhs - rhs <= 1e-10 * min(1, rhs)`` (:func:`~fkips.flow.excess`), so
    the caps ``a^(n-p)`` are checked to relative precision.  Any other
    regime is an :class:`~fkips.errors.InputError`.
    """
    return worst_excess(*composed_cap_excess(flow, regime, a, g_sup))


def check_regime(
    flow: FlowSpec,
    regime: str,
    a: float,
    g_sup: float | None,
    n_particles: int,
    replicates: int,
    seed: int,
    *,
    y_values=(1.0, 2.0, 4.0),
) -> VerifyReport:
    """All checks of one concentration regime on one flow: ``"bounded"`` (the
    uniform regime, potential ratios capped by ``g_sup``, None standing for
    the flow's largest ratio) or ``"decreasing"``.

    The hypothesis rows come first, and an unmet hypothesis returns them
    alone: the uniform regime caps every ratio by g_sup and every ergodic
    coefficient by a/(a+g_sup), the decreasing one caps step p's coefficient
    by :func:`~fkips.bounds.condition_decreasing` of its ratio g_p.  Then, in
    the order the module docstring gives, come the composed caps, the L2
    level and the exceedances of both thresholds of
    :func:`~fkips.bounds.deviation_thresholds`, all over the same
    ``replicates`` runs; the row names start ``uniform-`` or ``decreasing-``.
    """
    _known_regime(regime)
    trace = flow.trace
    name = "uniform" if regime == "bounded" else "decreasing"
    # g: what bounds.deviation_thresholds reads, the cap or the step ratios
    if regime == "bounded":
        g = g_sup = max(trace.g) if g_sup is None else g_sup
        b_cap = bounds.condition_bounded(g_sup, a)
        ok = all(x <= g_sup + 1e-12 for x in trace.g) and all(b <= b_cap + 1e-12 for b in trace.b)
        status = "pass" if ok else "hypothesis-unmet"
        hypothesis = [CheckRow("uniform-hypothesis", "all", max(trace.b), b_cap, status)]
    else:
        g = list(trace.g)
        caps = [bounds.condition_decreasing(g_p, a).value for g_p in trace.g]
        hypothesis = [
            CheckRow("decreasing-hypothesis", f"p={p}", b_p, cap, "hypothesis-unmet")
            for p, (b_p, cap) in enumerate(zip(trace.b, caps), start=1)
            if b_p > cap + 1e-12
        ] or [CheckRow("decreasing-hypothesis", "all", 0.0, 0.0, "pass")]
    if hypothesis[0].status != "pass":
        return VerifyReport(rows=tuple(hypothesis), hypothesis_ok=False)
    _, worst, scope = composed_caps(flow, regime, a, g_sup)
    rows = hypothesis + [CheckRow.compare(f"{name}-composed-caps", scope, worst, 1e-10)]

    run = run_counts(flow, n_particles, seed, replicates=replicates)
    devs = deviations(run.histograms, trace.etas, osc1_dictionary(flow.dim))
    log_gaps = run.log_gamma1 - trace.log_gamma1
    # L2 level, uniformly in time
    l2_bound = bounds.lp_uniform_bound(2, a, n_particles)
    for n, l2 in enumerate(l2_level(devs).tolist()):
        rows.append(CheckRow.compare(f"{name}-l2", f"n={n}", l2, l2_bound))

    # exceedance frequencies of both thresholds, each at level exp(-y)
    worst = np.abs(devs).max(axis=2)   # per replicate, sup over dictionary
    mass_rows = []
    for y in y_values:
        level = math.exp(-y)
        for n in range(1, flow.horizon + 1):
            eta_thr, mass_thr = bounds.deviation_thresholds(regime, a, g, n_particles, n, y)
            scope = f"n={n},y={_fmt(y)}"
            rows.append(CheckRow.exceedance(
                f"{name}-eta-deviation", scope, worst[:, n] > eta_thr, level
            ))
            signed = log_gaps[:, n] / n
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                mass_rows.append(CheckRow.exceedance(
                    f"{name}-mass-ratio", f"{scope},sign={tag}", sign * signed > mass_thr, level
                ))
    return VerifyReport(rows=tuple(rows + mass_rows), hypothesis_ok=True)


def check_oracle_identity(flow: FlowSpec, rel_tol: float = 1e-10) -> VerifyReport:
    """Mass recursion vs composed-operator route: per end time n, the worst
    relative gap over every split point p <= n."""
    direct, mass = np.array(flow.trace.gamma1), flow.table.mass
    p, n = np.indices(mass.shape)
    gaps = np.abs(mass - direct) / np.maximum(np.abs(direct), 1e-300)
    rows = tuple(
        CheckRow.compare("oracle-mass-identity", f"n={n}", worst, rel_tol)
        for n, worst in enumerate(gaps.max(axis=0, initial=0.0, where=p <= n).tolist())
    )
    return VerifyReport(rows=rows, hypothesis_ok=all(r.status == "pass" for r in rows))


def verify_bounds(cfg: ExperimentConfig) -> VerifyReport:
    """Config-driven verification suite; dispatches on the algorithm kind.

    Classic configs get the oracle identity, the semigroup lemmas and
    :func:`check_regime` on the ``[checks] regime``; isa configs get
    :func:`check_isa_bounds`; adaptive configs get
    :func:`~fkips.adaptive.concentration_check`'s report as it stands.
    Every check covers the whole ``[checks] y_values`` grid and runs
    ``cfg.verify_replicates`` replicates: ``[run] replicates``, or 2000 when
    the key is omitted.
    """
    checks, replicates = cfg.checks, cfg.verify_replicates
    if cfg.kind == "classic":
        flow = cfg.flow
        rows = list(check_oracle_identity(flow).rows)
        _, lemma_excess, _ = check_semigroup_lemmas(flow)
        rows.append(CheckRow.compare("semigroup-lemmas", "all", lemma_excess, 1e-10))
        report = check_regime(
            flow, checks.regime, checks.a, checks.g_sup, cfg.n_particles, replicates, cfg.seed,
            y_values=checks.y_values,
        )
        rows.extend(report.rows)
        return VerifyReport(rows=tuple(rows), hypothesis_ok=report.hypothesis_ok)
    if cfg.kind == "isa":
        return check_isa_bounds(
            cfg.isa, checks.epsilon_level, checks.eps_prime, cfg.n_particles, replicates,
            cfg.seed, y_values=checks.y_values,
        )
    from .adaptive import concentration_check

    return concentration_check(
        cfg.problem, cfg.adaptive_config, (cfg.n_particles,), cfg.steps, replicates, checks.a,
        checks.s_values, checks.y_values, cfg.seed,
    )


def check_isa_bounds(
    isa: IsaFlow,
    eps_level: float,
    eps_prime: float,
    n_particles: int,
    replicates: int,
    seed: int,
    *,
    y_values=(2.0,),
    beta_grid=(0.0, 0.5, 1.0, 2.0, 5.0),
) -> VerifyReport:
    """Annealing checks: invariance, mixing estimate, tail bound and the
    replicated optimizer exceedance at each confidence exponent y in
    ``y_values``, all on the built flow ``isa``."""
    from .annealing import gibbs_measure, metropolis_kernel, optimize

    problem, cert = isa.problem, isa.cert
    # invariance of the annealing kernel
    worst_inv = 0.0
    for beta in beta_grid:
        mu = gibbs_measure(problem, beta)
        pushed = mu.push(metropolis_kernel(problem, beta))
        worst_inv = max(worst_inv, float(np.abs(pushed.weights - mu.weights).max()))
    rows = [CheckRow.compare("annealing-invariance", "beta-grid", worst_inv, 1e-12)]
    # mixing estimate for the k0-fold kernel
    worst_gap = -math.inf
    for beta in beta_grid:
        kb = metropolis_kernel(problem, beta).power(cert.k0)
        exact = dobrushin(kb)
        est = cert.mixing_bound(beta)
        worst_gap = max(worst_gap, exact - est)
    rows.append(CheckRow.compare("annealing-mixing-estimate", "beta-grid", worst_gap, 1e-12))
    # Boltzmann-Gibbs tail bound; the 1e-12 rounding slack is not part of rhs
    v_min = problem.v_min
    m_prime = problem.sublevel_mass(v_min + eps_prime)
    tail_ok = True
    worst_tail = -math.inf
    for beta in beta_grid:
        mu = gibbs_measure(problem, beta)
        exact_tail = float(mu.weights[problem.v_values >= v_min + eps_level].sum())
        bound = bounds.gibbs_tail_bound(beta, eps_level, eps_prime, m_prime)
        worst_tail = max(worst_tail, exact_tail - bound)
        tail_ok &= exact_tail <= bound + 1e-12
    rows.append(
        CheckRow("gibbs-tail", "beta-grid", worst_tail, 0.0, "pass" if tail_ok else "fail")
    )
    # replicated optimizer: per-step exceedance of the composite bound
    result = optimize(
        isa, n_particles, seed, eps_level, eps_prime, y_values=y_values, replicates=replicates
    )
    exact_below = all(row.proportion_exact <= row.gibbs_term + 1e-12 for row in result.rows)
    rows.append(
        CheckRow.compare("optimizer-exact-mass", "all-steps", 0.0 if exact_below else 1.0, 0.0)
    )
    for y in y_values:
        thresholds = np.array([row.thresholds[float(y)] for row in result.rows])
        for n, column in enumerate((result.proportions > thresholds).T, start=1):
            rows.append(CheckRow.exceedance(
                "optimizer-exceedance", f"n={n},y={_fmt(y)}", column, math.exp(-y)
            ))
    return VerifyReport(rows=tuple(rows), hypothesis_ok=True)
