"""Fixed dictionary of oscillation-1 test functions, and the one reduction
of replicated occupation measures that every bound check reads.

Every empirical distance in this package is taken over this deterministic
dictionary: singleton indicators, sub-level indicators, centered ramps and
a fixed pseudorandom fill, all shifted to midrange zero so each entry has
oscillation exactly 1 and sup norm 1/2.  The dictionary depends only on the
state dimension and requested size.  Its sup bounds the sup over all
oscillation-1 functions from below; that sup, of a convex objective, is
attained at an indicator, so at small d it is enumerable over {0,1}^d.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_DICT_KEY = np.uint64(0xD1C7D1C7D1C7D1C7)

DEFAULT_DICTIONARY_SIZE = 32


def _center(v: np.ndarray) -> np.ndarray | None:
    spread = v.max() - v.min()
    if spread <= 0:
        return None
    v = v / spread
    return v - (v.max() + v.min()) / 2.0


def osc1_dictionary(dim: int, size: int = DEFAULT_DICTIONARY_SIZE) -> np.ndarray:
    """(size, dim) array of centered oscillation-1 per-state tables."""
    if dim < 2:
        raise InputError("the dictionary needs at least two states")
    if size < 1:
        raise InputError("dictionary size must be >= 1")
    rows = []

    def push(v):
        c = _center(np.asarray(v, dtype=np.float64))
        if c is not None and len(rows) < size:
            rows.append(c)

    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        push(e)
    for j in range(1, dim):
        push((np.arange(dim) < j).astype(np.float64))
    push(np.arange(dim, dtype=np.float64))
    push(-np.arange(dim, dtype=np.float64))
    push(np.arange(dim, dtype=np.float64) ** 2)
    rng = np.random.Generator(np.random.Philox(key=np.array([_DICT_KEY, _DICT_KEY])))
    while len(rows) < size:
        push(rng.random(dim))
    return np.array(rows[:size])


def means(hists, tables) -> np.ndarray:
    """(R, T+1, d) occupation measures against (K, d) tables -> (R, T+1, K).

    Each value is a sum over one row of one replicate, never a product over
    the whole block, so a replicate's values do not depend on R.
    """
    tables = np.asarray(tables)
    out = np.empty(hists.shape[:-1] + tables.shape[:1])
    for h, row in zip(hists, out):
        np.sum(h[..., None, :] * tables, axis=-1, out=row)
    return out


def deviations(hists, laws, tables) -> np.ndarray:
    """:func:`means` minus the exact means of the (T+1, d) ``laws``.  Each
    exact mean is one 1-d dot product of a law and a table."""
    return means(hists, tables) - np.array([[float(eta @ t) for t in tables] for eta in laws])


def l2_level(devs) -> np.ndarray:
    """Dictionary sup of the root-mean-square deviation over replicates:
    (R, T+1, K) -> (T+1,)."""
    return np.sqrt(np.mean(np.square(devs), axis=0)).max(axis=-1)
