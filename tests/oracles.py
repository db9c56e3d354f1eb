"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities by enumeration or naive recursion,
deliberately avoiding the production code paths it is used to check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats
from scipy.optimize import brentq

from fkips.errors import ConfigError


def tv_by_subsets(w1, w2) -> float:
    """Total variation as the explicit sup over all subsets (d <= 12)."""
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    d = w1.size
    assert d <= 12, "subset enumeration is exponential"
    best = 0.0
    for mask in range(1 << d):
        members = [i for i in range(d) if mask >> i & 1]
        best = max(best, abs(w1[members].sum() - w2[members].sum()))
    return best


def dobrushin_by_enumeration(rows) -> float:
    """Ergodic coefficient as the sup over state pairs and subsets."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[0]
    best = 0.0
    for x, y in itertools.combinations(range(d), 2):
        best = max(best, tv_by_subsets(rows[x], rows[y]))
    return best


def max_climb_by_paths(support, v, k0) -> float:
    """Worst accumulated uphill move over exactly k0 support edges, by
    explicit path enumeration (small graphs only)."""
    support = np.asarray(support, dtype=bool)
    v = np.asarray(v, dtype=np.float64)
    d = v.size
    best = 0.0
    frontier = {(x,): 0.0 for x in range(d)}
    for _ in range(k0):
        nxt = {}
        for path, climb in frontier.items():
            x = path[-1]
            for y in range(d):
                if support[x, y]:
                    c = climb + max(v[y] - v[x], 0.0)
                    key = path + (y,)
                    nxt[key] = c
                    best = max(best, c)
        frontier = nxt
    return best


def weights_by_recursion(initial, steps) -> np.ndarray:
    """The unnormalized measure gamma_n as a weight vector, by the raw
    recursion: start from the initial weights and repeatedly apply diag(G)
    then K."""
    w = np.asarray(initial, dtype=np.float64).copy()
    for g_vals, k_rows in steps:
        w = (w * np.asarray(g_vals)) @ np.asarray(k_rows)
    return w


def gamma_by_recursion(initial, steps, values=None) -> float:
    """Unnormalized integral gamma_n(f) by :func:`weights_by_recursion`."""
    w = weights_by_recursion(initial, steps)
    if values is None:
        return float(w.sum())
    return float(w @ np.asarray(values, dtype=np.float64))


def composed_by_product(steps, p, n, dim):
    """Q_{p,n} as the explicit product of diag(G_k) K_k for k = p+1..n, with
    its row sums h = Q_{p,n} 1 and the row-normalized transition P_{p,n}.
    No rescaling: fine for the short horizons of the tests."""
    q = np.eye(dim)
    for g_vals, k_rows in steps[p:n]:
        q = q @ (np.asarray(g_vals)[:, None] * np.asarray(k_rows))
    h = q.sum(axis=1)
    return q, h, q / h[:, None]


def composed_table_by_product(initial, steps):
    """(g, b, mass) arrays of every pair p <= n (NaN for p > n) from
    :func:`composed_by_product`: ``g = max h / min h``,
    ``b = dobrushin_by_rows(P_{p,n})`` and ``mass = gamma_p . Q_{p,n} . 1``."""
    size, dim = len(steps) + 1, len(initial)
    g, b, mass = (np.full((size, size), np.nan) for _ in range(3))
    for n in range(size):
        for p in range(n + 1):
            _, h, transition = composed_by_product(steps, p, n, dim)
            g[p, n] = h.max() / h.min()
            b[p, n] = dobrushin_by_rows(transition)
            mass[p, n] = float(weights_by_recursion(initial, steps[:p]) @ h)
    return g, b, mass


def dobrushin_by_rows(rows) -> float:
    """Ergodic coefficient as half the largest L1 distance over all ordered
    row pairs, by a plain double loop."""
    rows = np.asarray(rows, dtype=np.float64)
    d = rows.shape[0]
    return max(0.5 * float(np.abs(rows[x] - rows[y]).sum()) for x in range(d) for y in range(d))


def parse_value_by_floats(text: str):
    """A config value parsed token by token with ``float()``: a scalar
    (bool, int, float or bare text), a vector, a ``;``-separated matrix,
    or the stripped text when a vector or matrix does not parse."""
    text = text.strip()
    if ";" in text:
        rows = [r.split() for r in text.split(";")]
        try:
            return np.array([[float(x) for x in row] for row in rows])
        except ValueError:
            return text
    parts = text.split()
    if len(parts) > 1:
        try:
            return np.array([float(x) for x in parts])
        except ValueError:
            return text
    if not parts:
        return ""
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_sections_by_lines(text: str, schema: dict) -> dict:
    """Config sections by the line-copying loop: ``str.splitlines``, then
    each line's comment, key and value split off as copies, and every value
    read by :func:`parse_value_by_floats`.  Raises :class:`ConfigError` with
    every bad line's message, as the config parser does."""
    errors = []
    sections: dict = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in schema:
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in schema[current]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{current}]")
            continue
        sections[current][key] = parse_value_by_floats(value)
    if errors:
        raise ConfigError(errors)
    return sections


def excess_by_cases(lhs: float, rhs: float) -> float:
    """``lhs - rhs`` in units of ``min(1, rhs)`` for one pair of floats;
    over ``rhs <= 0`` a positive gap is infinite."""
    gap, scale = lhs - rhs, min(1.0, rhs)
    if scale > 0:
        return gap / scale
    return math.inf if gap > 0 else gap


def worst_record(records):
    """``(ok, worst, scope)`` of (name, p, n, excess) records: the first
    record with the largest excess, held when it is at most 1e-10."""
    name, p, n, worst = max(records, key=lambda r: r[3])
    return worst <= 1e-10, worst, f"{name},p={p},n={n}"


def semigroup_lemma_records(spec):
    """(name, p, n, excess) of every composed-step estimate, in record order,
    by one loop over k per pair (p, n) on Python floats."""
    g, b = spec.table.g.T.tolist(), spec.table.b.T.tolist()
    step_g = [None] + [g[k][k - 1] for k in range(1, spec.horizon + 1)]
    step_b = [None] + [b[k][k - 1] for k in range(1, spec.horizon + 1)]
    records = []
    for n in range(spec.horizon + 1):
        g_pn, b_pn = g[n], b[n]
        for p in range(n + 1):
            rhs, prod_gb = 0.0, 1.0
            for k in range(p + 1, n + 1):
                rhs += (step_g[k] - 1.0) * prod_gb
                prod_gb *= step_g[k] * step_b[k]
            records.append(("potential-ratio-sum", p, n, excess_by_cases(g_pn[p], 1.0 + rhs)))
            rhs = 1.0
            for k in range(p + 1, n + 1):
                rhs *= step_b[k] * g_pn[k]
            records.append(("mixing-product", p, n, excess_by_cases(b_pn[p], rhs)))
            rhs = 1.0
            for k in range(p + 1, n + 1):
                rhs *= step_b[k] * g_pn[k - 1]
            records.append(("stability-product", p, n, excess_by_cases(g_pn[p] * b_pn[p], rhs)))
            if p >= 1:
                rhs = step_g[p] * (1.0 + step_b[p] * (g_pn[p] - 1.0))
                records.append(("backward-recursion", p - 1, n, excess_by_cases(g_pn[p - 1], rhs)))
    return records


def composed_cap_records(flow, regime, a, g_sup=None):
    """(name, p, n, excess) of every composed cap of a regime, in record
    order, one pair at a time on Python floats."""
    g, b = flow.table.g.tolist(), flow.table.b.tolist()
    records = [
        ("g_pn*b_pn", p, n, excess_by_cases(g[p][n] * b[p][n], a ** (n - p)))
        for n in range(flow.horizon + 1)
        for p in range(n - 1 if flow.horizon else n, -1, -1)
    ]
    step_g, step_b, alpha = flow.trace.g, flow.trace.b, a / (1.0 - a)
    for n in range(flow.horizon + 1):
        for p in range(n, -1, -1):
            if regime == "bounded":
                records.append(("g_pn", p, n, excess_by_cases(g[p][n], g_sup + a)))
                if p >= 1:
                    bg = step_b[p - 1] * g[p - 1][n]
                    records.append(("b_p*g_(p-1)n", p, n, excess_by_cases(bg, a)))
            elif p < n:
                cap = step_g[p] ** (1.0 + alpha)
                records.append(("g_pn", p, n, excess_by_cases(g[p][n], cap)))
    return records


def oracle_identity_gaps(flow):
    """Per end time n, the worst relative gap between gamma_n(1) and
    gamma_p Q_{p,n} 1 over every split point p <= n, one pair at a time."""
    gamma1, mass = flow.trace.gamma1, flow.table.mass.tolist()
    gaps = []
    for n in range(flow.horizon + 1):
        direct, worst = gamma1[n], 0.0
        for p in range(n + 1):
            worst = max(worst, abs(mass[p][n] - direct) / max(abs(direct), 1e-300))
        gaps.append(worst)
    return gaps


def kernel_potential_smoothing(k_rows, g_vals):
    """Both sides of the smoothing of a potential by a kernel,

        max_x K.G(x) / min_y K.G(y)  <=  1 + dobrushin(K) * (ratio(G) - 1),

    as (lhs, rhs)."""
    k_rows, g_vals = np.asarray(k_rows), np.asarray(g_vals)
    kg = k_rows @ g_vals
    lhs = float(kg.max()) / float(kg.min())
    return lhs, 1.0 + dobrushin_by_rows(k_rows) * (float(g_vals.max()) / float(g_vals.min()) - 1.0)


def random_distribution(rng, dim):
    w = rng.random(dim) + 0.05
    return w / w.sum()


def random_kernel_rows(rng, dim):
    rows = rng.random((dim, dim)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def random_potential_values(rng, dim, low=0.2, high=3.0):
    return low + (high - low) * rng.random(dim)


# -- the exact law of the N-particle system on a finite space ----------------


def compositions(n, d):
    """Every count vector of n particles on d states, one per row."""
    cuts = itertools.combinations(range(n + d - 1), d - 1)
    return np.array([np.diff((-1, *cut, n + d - 1)) - 1 for cut in cuts], dtype=np.int64)


def composition_index(states, rows):
    """Row index in ``states`` of every count vector in ``rows``."""
    base = (int(states.max()) + 1) ** np.arange(states.shape[1])
    keys = states @ base
    order = np.argsort(keys)
    found = order[np.searchsorted(keys[order], np.asarray(rows) @ base)]
    assert np.array_equal(states[found], rows)
    return found


def lattice_moves(sources, moves, states):
    """P(c -> c') from every count vector ``sources[i]`` to every row of
    ``states`` when each particle moves on its own, one at x to y with
    probability ``moves[i, x, y]``: c' = sum_x Multinomial(c_x, moves[i, x]).
    The law is built one particle at a time on a dense table of the first
    d - 1 counts (landing on the last state leaves the table index)."""
    k, d = sources.shape
    n = int(sources[0].sum())
    at = np.array([np.repeat(np.arange(d), c) for c in sources]).reshape(k, n)
    table = np.zeros((k,) + (n + 1,) * (d - 1))
    table[(slice(None),) + (0,) * (d - 1)] = 1.0
    shape = (k,) + (1,) * (d - 1)
    for j in range(n):
        p = moves[np.arange(k), at[:, j]]
        # at most j < n particles placed so far, so no roll wraps any mass
        nxt = table * p[:, -1].reshape(shape)
        for y in range(d - 1):
            nxt += np.roll(table, 1, axis=1 + y) * p[:, y].reshape(shape)
        table = nxt
    return table[(slice(None),) + tuple(states[:, :-1].T)]


def selection_rows(c, g, keep):
    """S_c = diag(keep) + diag(1 - keep) 1 (c g / sum c g): a particle at x
    stays with probability keep[x] and is otherwise redrawn in proportion
    to c g."""
    pool = c * g / (c * g).sum()
    return np.diag(keep) + (1.0 - keep)[:, None] * pool[None, :]


def lattice_law(spec, n_particles, eps):
    """Exact law of the counts of N particles on a finite flow at an eps
    policy (``"auto"``: 1 / max G over occupied states, ``"multinomial"``:
    0, or a number): the states, the laws pi_0..pi_T, the step matrices
    P_1..P_T and E[gamma^N_T], the expected product of c.G/N."""
    d = spec.dim
    states = compositions(n_particles, d)
    laws = [stats.multinomial.pmf(states, n_particles, spec.initial.weights)]
    steps, mass = [], laws[0]   # mass: E[gamma^N_n ; c_n = c]
    for potential, kernel in spec.steps:
        g = potential.values
        moves = np.empty((len(states), d, d))
        for i, c in enumerate(states):
            e = {"auto": 1.0 / g[c > 0].max(), "multinomial": 0.0}.get(eps, eps)
            moves[i] = selection_rows(c, g, np.clip(e * g, 0.0, 1.0)) @ kernel.rows
        step = lattice_moves(states, moves, states)
        mass = (mass * (states @ g) / n_particles) @ step
        laws.append(laws[-1] @ step)
        steps.append(step)
    return states, laws, steps, float(mass.sum())


def adaptive_lattice_law(v, initial, epsilon, n_particles, horizon, kernel, realized):
    """Exact law of the adaptive counts: Delta(c) solves
    sum_x c_x exp(-Delta v_x) = N epsilon (by brentq), a particle at x stays
    with probability exp(-Delta v_x) and is otherwise redrawn in proportion
    to c exp(-Delta v), then moves by ``kernel(n, beta)``.  With
    ``realized`` the kernel reads the realized beta = sum of the Deltas, so
    the state is (c, beta); otherwise it is c (beta is kept at 0).  Gives
    the states and, per step, a dict {(state index, beta): probability}."""
    states = compositions(n_particles, len(v))

    def solve(c):
        def gap(x):
            return c @ np.exp(-x * v) / n_particles - epsilon

        hi = 1.0
        while gap(hi) > 0:
            hi *= 2.0
        return brentq(gap, 0.0, hi, xtol=1e-15)

    deltas = [solve(c) for c in states]
    start = stats.multinomial.pmf(states, n_particles, initial)
    laws = [{(i, 0.0): p for i, p in enumerate(start) if p > 0}]
    for n in range(horizon):
        keys, probs = zip(*laws[-1].items())
        index = np.array([i for i, _ in keys])
        betas = [b + deltas[i] for i, b in keys]
        moves = np.empty((len(keys), len(v), len(v)))
        for k, i in enumerate(index):
            g = np.exp(-deltas[i] * v)
            moves[k] = selection_rows(states[i], g, g) @ kernel(n, betas[k] if realized else None)
        law = {}
        for p, b, row in zip(probs, betas, lattice_moves(states[index], moves, states)):
            for j in np.flatnonzero(row):
                key = (j, b if realized else 0.0)
                law[key] = law.get(key, 0.0) + p * row[j]
        laws.append(law)
    return states, laws


def pooled_chisquare(observed, probs, min_expected=5.0):
    """p-value of a chi-square test of cell counts against cell
    probabilities.  Cells expecting fewer than ``min_expected`` are pooled
    into one, which joins the smallest other cell if it is still short; a
    count in a cell of probability 0 fails outright."""
    observed, probs = np.asarray(observed, dtype=np.float64), np.asarray(probs)
    assert not np.any(observed[probs == 0]), "a count landed on an impossible cell"
    expected = observed.sum() * probs
    small = expected < min_expected
    obs, exp = observed[~small], expected[~small]
    if small.any():
        pooled_obs, pooled_exp = observed[small].sum(), expected[small].sum()
        if pooled_exp >= min_expected:
            obs, exp = np.append(obs, pooled_obs), np.append(exp, pooled_exp)
        else:
            j = np.argmin(exp)
            obs[j] += pooled_obs
            exp[j] += pooled_exp
    return stats.chisquare(obs, exp).pvalue
