"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).  Everything is desk scale: finite spaces of dimension
at most 10, horizons at most 30, populations at most 2000, replicate counts
at most 2000.  All randomness is counter-based and seeded, so every number
here is reproducible bit for bit.
"""

import math

import numpy as np
import pytest

from fkips import bounds
from fkips.adaptive import (
    AdaptiveConfig,
    concentration_check,
    l2_error_check,
    run_adaptive_counts,
    theoretical_adaptive_flow,
)
from fkips.annealing import (
    build_isa_flow,
    gibbs_measure,
    metropolis_kernels,
    minorize,
)
from fkips.engine import run_counts
from fkips.flow import check_semigroup_lemmas, run_flow
from fkips.harness import (
    check_isa_bounds,
    composed_caps,
    parse_config,
    run_experiment,
)
from fkips.measures import KernelMatrix, kernel_powers, law, uniform_law
from fkips.testfns import osc1_dictionary

from .configs import flow_to_config
from .instances import (
    adaptive_problem,
    bounded_regime_flow,
    decreasing_regime_flow,
    double_well_problem,
    random_flow,
    random_reversible_problem,
)
from .oracles import (
    dobrushin,
    composed_by_product,
    kernel_potential_smoothing,
    random_kernel_rows,
    random_potential_values,
    weights_by_recursion,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# -- shared heavy runs (computed once per session) ---------------------------


@pytest.fixture(scope="module")
def bounded_tensor():
    """Deviation and mass-gap tensors of the uniform-regime flow at
    N = 200, R = 2000, horizon 10; reused by criteria 5 and 6."""
    flow = bounded_regime_flow(10, seed=100)
    trace = run_flow(flow)
    fdict = osc1_dictionary(flow.dim)
    exact = np.array([[float(eta @ f) for f in fdict] for eta in trace.etas])
    reps, n_particles = 2000, 200
    run = run_counts(flow, n_particles, seed=2024, replicates=reps)
    worst = np.abs(run.histograms @ fdict.T - exact).max(axis=2)
    log_gaps = run.log_gamma1 - trace.log_gamma1
    return flow, trace, worst, log_gaps, n_particles, reps


def test_criterion_01_oracle_identity():
    """Mass recursion equals the composed-operator route at every split:
    the table's gamma_p . Q_{p,n} . 1, and gamma_p . Q_{p,n} . f by plain
    products."""
    rng = philox(1)
    worst_rel = 0.0
    for _ in range(200):
        spec = random_flow(rng)
        trace = run_flow(spec)
        steps = list(zip(spec.potentials, spec.kernels))
        f = rng.standard_normal(spec.dim)
        for n in range(spec.horizon + 1):
            direct = float(trace.etas[n] @ f) * trace.gamma1[n]
            for p in range(n + 1):
                q, _, _ = composed_by_product(steps, p, n, spec.dim)
                alt = float(weights_by_recursion(spec.initial, steps[:p]) @ (q @ f))
                worst_rel = max(worst_rel, abs(alt - direct) / max(abs(direct), 1e-300))
                mass_gap = abs(spec.table.mass[p, n] - trace.gamma1[n]) / trace.gamma1[n]
                worst_rel = max(worst_rel, mass_gap)
    report(1, worst_rel <= 1e-10, f"200 random flows, worst relative gap {worst_rel:.3e}")


def test_criterion_02_semigroup_lemmas():
    """Composed-step estimates hold exactly on 200 random flows, to a
    relative 1e-10 wherever a bound is below 1."""
    rng = philox(2)
    worst_excess = -math.inf
    for _ in range(200):
        spec = random_flow(rng)
        worst_excess = max(worst_excess, check_semigroup_lemmas(spec)[1])
    # kernel-potential smoothing on its own random batch
    worst_slack = math.inf
    for _ in range(200):
        d = int(rng.integers(2, 9))
        lhs, rhs = kernel_potential_smoothing(
            random_kernel_rows(rng, d), random_potential_values(rng, d)
        )
        worst_slack = min(worst_slack, rhs - lhs)
    report(
        2,
        worst_excess <= 1e-10 and worst_slack >= -1e-10,
        f"worst lemma excess {worst_excess:.3e}, worst smoothing slack {worst_slack:.3e}",
    )


def test_criterion_03_unbiasedness():
    """Replicate mean of the mass estimator within 4 SE of the oracle."""
    rng = philox(3)
    worst_z = 0.0
    for instance in range(5):
        spec = random_flow(rng, dim=int(rng.integers(2, 6)), horizon=5)
        oracle = run_flow(spec).gamma1[5]
        for n_particles in (100, 1000):
            run = run_counts(spec, n_particles, seed=300 + instance, replicates=500)
            vals = np.exp(run.log_gamma1[:, 5])
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            worst_z = max(worst_z, abs(vals.mean() - oracle) / se)
    report(3, worst_z <= 4.0, f"5 flows x N in (100, 1000), worst |z| = {worst_z:.2f}")


def test_criterion_04_l2_uniform_bound():
    """Uniform-in-time L2 level B_2/(2(1-a) sqrt(N)) on a 30-step flow."""
    a, n_particles, reps = 0.5, 400, 500
    flow = bounded_regime_flow(30, a=a, seed=100)
    trace = run_flow(flow)
    caps_ok, _, _ = composed_caps(flow, "bounded", a, math.exp(0.5))
    fdict = osc1_dictionary(flow.dim)
    exact = np.array([[float(eta @ f) for f in fdict] for eta in trace.etas])
    devs = run_counts(flow, n_particles, seed=400, replicates=reps).histograms @ fdict.T - exact
    l2 = np.sqrt(np.mean(np.square(devs), axis=0)).max(axis=1)
    cap = bounds.lp_uniform_bound(2, a, n_particles)   # B_2 = 1
    ok = caps_ok and bool(np.all(l2 <= cap))
    report(4, ok, f"T = 30, worst step L2 {l2.max():.4f} <= {cap:.4f}")


def test_criterion_05_eta_deviation_thresholds(bounded_tensor):
    """Occupation-deviation exceedance below exp(-y) + 3 SE for y in 1,2,4."""
    flow, trace, worst, _, n_particles, reps = bounded_tensor
    a, g_sup = 0.5, math.exp(0.5)
    assert max(trace.g) <= g_sup + 1e-12
    assert max(trace.b) <= bounds.condition_bounded(g_sup, a) + 1e-12
    caps_ok, _, _ = composed_caps(flow, "bounded", a, g_sup)
    r1, r2 = bounds.r_star_bounded(a, g_sup, n_particles)
    ok = caps_ok
    detail = []
    for y in (1.0, 2.0, 4.0):
        thr = bounds.eta_deviation_threshold(r1, r2, n_particles, y)
        level = math.exp(-y)
        allow = 3.0 * math.sqrt(level * (1.0 - level) / reps)
        freq = float((worst[:, 1:] > thr).mean(axis=0).max())
        ok &= freq <= level + allow
        detail.append(f"y={y:g}: freq {freq:.4f} <= {level + allow:.4f}")
    report(5, ok, f"N = 200, R = 2000; " + "; ".join(detail))


def test_criterion_06_mass_ratio_concentration(bounded_tensor):
    """Normalized log-mass-ratio exceedance below exp(-y) + 3 SE, both
    regimes, both signs."""
    flow, trace, _, log_gaps, n_particles, reps = bounded_tensor
    a = 0.5
    rt1, rt2 = bounds.r_tilde_bounded(a, math.exp(0.5))
    ok = True
    worst_freq = 0.0
    for y in (1.0, 2.0, 4.0):
        level = math.exp(-y)
        allow = 3.0 * math.sqrt(level * (1.0 - level) / reps)
        for n in range(1, 11):
            thr = bounds.gamma_log_ratio_threshold_bounded(rt1, rt2, n, n_particles, y)
            for sign in (1.0, -1.0):
                freq = float((sign * log_gaps[:, n] / n > thr).mean())
                worst_freq = max(worst_freq, freq - (level + allow))
                ok &= freq <= level + allow

    # decreasing regime: ratios 1 + 2^-p, fresh replicate tensor
    dec_flow = decreasing_regime_flow(10, seed=200)
    dec_trace = run_flow(dec_flow)
    for g_p, b_p in zip(dec_trace.g, dec_trace.b):
        assert b_p <= bounds.condition_decreasing(g_p, a) + 1e-12
    caps_ok, _, _ = composed_caps(dec_flow, "decreasing", a)
    ok &= caps_ok
    g_sched = list(dec_trace.g)
    gaps = run_counts(dec_flow, n_particles, seed=2025, replicates=reps).log_gamma1
    gaps = gaps - dec_trace.log_gamma1
    for y in (1.0, 2.0, 4.0):
        level = math.exp(-y)
        allow = 3.0 * math.sqrt(level * (1.0 - level) / reps)
        for n in range(1, 11):
            rt3, rt4, rt5 = bounds.r_tilde_decreasing(g_sched, a, n)
            thr = bounds.gamma_log_ratio_threshold_decreasing(
                rt3, rt4, rt5, n, n_particles, y
            )
            for sign in (1.0, -1.0):
                freq = float((sign * gaps[:, n] / n > thr).mean())
                worst_freq = max(worst_freq, freq - (level + allow))
                ok &= freq <= level + allow
    report(6, ok, f"both regimes, worst freq-minus-cap {worst_freq:.4f}")


def test_criterion_07_annealing_invariance():
    """The annealing kernel leaves its target invariant to 1e-12."""
    rng = philox(7)
    worst = 0.0
    for _ in range(50):
        prob = random_reversible_problem(rng, int(rng.integers(2, 9)))
        betas = (0.0, 0.3, 1.0, 3.0, 10.0)
        for beta, rows in zip(betas, metropolis_kernels(prob, betas)):
            mu = gibbs_measure(prob, beta)
            pushed = law(mu @ rows)
            worst = max(worst, float(np.abs(pushed - mu).max()))
    report(7, worst <= 1e-12, f"50 problems x 5 temperatures, worst gap {worst:.2e}")


def test_criterion_08_mixing_estimate():
    """Exact k0-step coefficient below 1 - delta exp(-beta gap)."""
    rng = philox(8)
    worst = -math.inf
    checked = 0
    # ring proposals at the smallest covering k0
    for dim in (4, 6, 8):
        prob = double_well_problem() if dim == 8 else None
        if prob is None:
            from fkips.annealing import GibbsProblem

            prob = GibbsProblem(
                v_values=rng.random(dim),
                reference=uniform_law(dim),
                proposal=KernelMatrix.lazy_ring(dim, 0.5),
            )
        cert = minorize(prob, dim // 2)
        betas = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
        powers = kernel_powers(metropolis_kernels(prob, betas), [cert.k0] * len(betas))
        for beta, rows in zip(betas, powers):
            exact = dobrushin(KernelMatrix(rows).rows)
            worst = max(worst, exact - cert.mixing_bound(beta))
            checked += 1
    # dense random reversible proposals minorize in one move
    for _ in range(20):
        prob = random_reversible_problem(rng, int(rng.integers(3, 8)))
        cert = minorize(prob, 1)
        betas = (0.0, 0.5, 1.5, 3.0)
        for beta, rows in zip(betas, metropolis_kernels(prob, betas)):
            exact = dobrushin(KernelMatrix(rows).rows)
            worst = max(worst, exact - cert.mixing_bound(beta))
            checked += 1
    report(8, worst <= 1e-12, f"{checked} (proposal, beta) pairs, worst excess {worst:.2e}")


def test_criterion_09_gibbs_tail_and_optimizer():
    """Tail bound on a grid, then the tuned optimizer drives both the exact
    mass and the particle proportions below the composite threshold."""
    prob = double_well_problem()
    ok = True
    # tail bound over a (beta, eps, eps') grid
    for beta in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        mu = gibbs_measure(prob, beta)
        for eps in (0.3, 0.5, 0.8):
            for eps_prime in (0.05, 0.15, 0.25):
                if eps_prime >= eps:
                    continue
                exact_tail = float(mu[prob.v_values >= eps].sum())
                cap = bounds.gibbs_tail_bound(
                    beta, eps, eps_prime, prob.sublevel_mass(eps_prime)
                )
                ok &= exact_tail <= cap + 1e-12
    # replicated optimizer at y = 2
    betas = 0.0 + np.arange(25) * 0.5
    verify = check_isa_bounds(
        build_isa_flow(prob, betas, "constant", minorize(prob, 4), 0.5),
        eps_level=0.5,
        eps_prime=0.25,
        n_particles=1000,
        replicates=200,
        seed=900,
        y_values=(2.0,),
    )
    ok &= all(r.status == "pass" for r in verify.rows)
    worst = min(r.margin for r in verify.rows)
    report(9, ok, f"tail grid + 200-replicate optimizer, worst margin {worst:.4f}")


def test_criterion_10_adaptive_solver():
    """Increment solver residuals at 1e-9; reference mass ratios at 1e-8."""
    prob = adaptive_problem(4)
    ok = True
    worst_resid = 0.0
    cfg = AdaptiveConfig(epsilon=0.75, tol=1e-10, mcmc_iters=3)
    ref = theoretical_adaptive_flow(prob, 0.75, 6, mcmc_iters=3)
    run = run_adaptive_counts(prob, cfg, 250, 6, seed=1000, replicates=50, reference=ref)
    worst_resid = max(worst_resid, float(run.lambda_residual[~run.saturated].max()))
    ok &= worst_resid <= 1e-9
    worst_ratio = 0.0
    for eps in (0.6, 0.75, 0.9):
        ref_eps = theoretical_adaptive_flow(prob, eps, 6, mcmc_iters=3)
        trace = run_flow(ref_eps.flow)
        for n in range(6):
            worst_ratio = max(
                worst_ratio, abs(trace.gamma1[n + 1] / trace.gamma1[n] - eps)
            )
    ok &= worst_ratio <= 1e-8
    report(
        10,
        ok,
        f"solver residual {worst_resid:.2e} <= 1e-9, mass-ratio gap {worst_ratio:.2e} <= 1e-8",
    )


def test_criterion_11_adaptive_l2_envelope():
    """Replicated L2 error below B_2 e~_n / sqrt(N) on a 6-state problem."""
    prob = adaptive_problem(6)
    cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=4)
    rep = l2_error_check(prob, cfg, 400, 6, seed=1100, replicates=500)
    worst = max(r.lhs - r.rhs for r in rep.rows)
    report(
        11,
        all(r.status == "pass" for r in rep.rows),
        f"6-state, N = 400, R = 500, worst d2-minus-bound {worst:.4f}",
    )


def test_criterion_12_adaptive_concentration():
    """Exceedances below both adaptive-regime bounds with the hypothesis
    verified exactly at level 0.6."""
    prob = adaptive_problem(4)
    cfg = AdaptiveConfig(epsilon=0.75, mcmc_iters=3)
    rep = concentration_check(
        prob,
        cfg,
        (400,),
        4,
        2000,
        0.6,
        (0.0, 0.05, 0.1, 0.15, 0.2, 0.3),
        (1.0, 2.0, 4.0),
        seed=1200,
    )
    hypothesis, *rows = rep.rows
    assert hypothesis.status == "pass", f"hypothesis failed at {hypothesis.scope}"
    worst = max(r.lhs - r.rhs for r in rows)
    report(
        12,
        all(r.status == "pass" for r in rep.rows),
        f"largest level {hypothesis.lhs:.3f} <= {hypothesis.rhs}, "
        f"worst freq-minus-cap {worst:.4f}",
    )


def test_criterion_13_determinism(tmp_path):
    """Byte-identical CSV across the threads key (1, 2, 8), which is accepted
    and has no effect, and across consecutive runs."""
    classic = flow_to_config(
        bounded_regime_flow(6, seed=100), n_particles=150, replicates=40, seed=9
    )
    adaptive_text = """
[problem]
v = 0.5 0.65 0.8 1.0
m = uniform
proposal = lazy-ring 0.25

[algorithm]
kind = adaptive

[adaptive]
epsilon = 0.75
mcmc_iters = 3

[run]
n_particles = 150
steps = 3
replicates = 40
seed = 9
"""
    ok = True
    for text in (classic, adaptive_text):
        outputs = {
            run_experiment(parse_config(text + f"threads = {t}\n"))["raw.csv"] for t in (1, 2, 8)
        }
        outputs.add(run_experiment(parse_config(text))["raw.csv"])
        ok &= len(outputs) == 1
    report(13, ok, "raw CSV identical across threads = 1, 2, 8 and consecutive runs")
