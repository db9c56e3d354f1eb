"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities by enumeration or naive recursion,
deliberately avoiding the production code paths it is used to check.
"""

from __future__ import annotations

import itertools

import numpy as np


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
