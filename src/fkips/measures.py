"""Finite-state measure algebra.

Probability vectors, row-stochastic kernels, kernel powers and Dobrushin
ergodic coefficients.  This is the exact ground-truth layer everything else
builds on: states are plain indices ``0..d-1``, weights are dense float64
vectors, and every operation is a pure function of its arguments.

Conventions
-----------
* A law is a read-only (d,) float64 array, built by :func:`law`,
  :func:`normalized_law` or :func:`uniform_law`; a flow's laws are one
  (T+1, d) array, and energies and test functions are plain (d,) tables.
* ``kernel_powers(stack, exponents)`` raises each matrix of a (k, d, d)
  stack of kernel rows to its own integer power by one row-renormalized
  binary-powering loop over the stack; ``KernelMatrix.power`` is the same
  loop on a stack of one.
* The Dobrushin coefficient (worst-case row total variation) is half of
  ``_max_row_l1``, one reduction, pruned by a vectorized triangle-inequality
  test, over a whole stack of matrices, such as a table's centred matrices
  of one lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasureError, InputError

# Rejection gate for weight sums before exact renormalization; keeps
# accumulated floating-point drift out of oracle products.
SUM_TOLERANCE = 1e-9

# Cap on each temporary of ``_max_row_l1``, sized to stay in a core's L2
# cache.
_DOBRUSHIN_BLOCK_BYTES = 1 << 16


def _as_vector(values, name: str) -> np.ndarray:
    try:
        arr = np.array(values, dtype=np.float64, copy=True)
    except (TypeError, ValueError):   # a callable, or ragged rows
        arr = None
    if arr is None or arr.ndim != 1 or arr.size == 0:
        raise InputError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must contain only finite values")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_potentials(values: np.ndarray) -> None:
    """Refuse a potential table with an entry that is not finite and > 0."""
    if not np.all(np.isfinite(values)):
        raise InputError("potential values must contain only finite values")
    if np.any(values <= 0):
        raise InputError("potential values must be strictly positive")


def _kernel_row_sums(m: np.ndarray) -> np.ndarray:
    """Row sums of a kernel or a stack of kernels, each row non-negative and
    summing to 1 within ``SUM_TOLERANCE``; a stack's rows are numbered down
    the stack."""
    if not np.all(np.isfinite(m)):
        raise InputError("kernel must contain only finite values")
    if np.any(m < 0):
        raise InputError("kernel entries must be non-negative")
    sums = m.sum(axis=-1)
    bad = np.abs(sums - 1.0) > SUM_TOLERANCE
    if np.any(bad):
        raise InputError(f"kernel rows {np.flatnonzero(bad).tolist()} are not stochastic")
    return sums


def _checked_law(weights, name: str = "weights") -> np.ndarray:
    """A float64 copy of ``weights``, refused unless it is a non-empty 1-d
    vector of non-negative finite entries summing to 1 within
    ``SUM_TOLERANCE``; messages name ``name``."""
    w = _as_vector(weights, name)
    if np.any(w < 0):
        raise InputError(f"{name} must be non-negative")
    s = w.sum()
    if abs(s - 1.0) > SUM_TOLERANCE:
        raise InputError(f"{name} sum to {s!r}, expected 1 within {SUM_TOLERANCE}")
    return w


def law(weights) -> np.ndarray:
    """A probability vector as a read-only (d,) float64 array: the checked
    weights divided once by their sum."""
    w = _checked_law(weights)
    return _freeze(w / w.sum())


def normalized_law(weights) -> np.ndarray:
    """:func:`law` of any non-negative vector with positive total mass,
    divided by that mass first."""
    w = _as_vector(weights, "weights")
    if np.any(w < 0):
        raise InputError("weights must be non-negative")
    s = w.sum()
    if s <= 0:
        raise DegenerateMeasureError("total mass is zero")
    return law(w / s)


def uniform_law(dim: int) -> np.ndarray:
    """The uniform :func:`law` on ``dim`` states."""
    if dim < 1:
        raise InputError("dim must be >= 1")
    return law(np.full(dim, 1.0 / dim))


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Row-stochastic Markov transition matrix on ``0..d-1``."""

    rows: np.ndarray

    def __post_init__(self):
        m = np.array(self.rows, dtype=np.float64, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InputError("kernel must be a non-empty square matrix")
        object.__setattr__(self, "rows", _freeze(m / _kernel_row_sums(m)[..., None]))

    @classmethod
    def uniform(cls, dim: int) -> "KernelMatrix":
        return cls(np.tile(uniform_law(dim), (dim, 1)))

    @classmethod
    def lazy_ring(cls, dim: int, stay: float = 0.5) -> "KernelMatrix":
        """Nearest-neighbour ring walk holding in place with probability ``stay``."""
        if not 0.0 <= stay < 1.0:
            raise InputError("stay probability must lie in [0, 1)")
        move = (1.0 - stay) / 2.0
        m = np.zeros((dim, dim))
        for x in range(dim):
            m[x, x] += stay
            m[x, (x + 1) % dim] += move
            m[x, (x - 1) % dim] += move
        return cls(m)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def power(self, exponent: int) -> "KernelMatrix":
        """Iterated kernel ``K^m``, by the loop of :func:`kernel_powers`."""
        return KernelMatrix(_binary_powers(self.rows[None], [exponent])[0])


def kernel_powers(stack, exponents) -> np.ndarray:
    """``K_i^(m_i)`` for each matrix ``K_i`` of a (k, d, d) stack of kernel
    rows and its non-negative integer exponent ``m_i``, with each row
    divided by its sum once more, as a :class:`KernelMatrix` built from the
    power holds it.  The exponents are Python ints, so ``k0 m_n`` may pass
    2^63."""
    powers = _binary_powers(stack, exponents)
    return powers / powers.sum(axis=-1, keepdims=True)


def _binary_powers(stack, exponents) -> np.ndarray:
    """Binary powering of every matrix of a (k, d, d) stack at once.

    Every intermediate product is row-renormalized: raw repeated squaring
    lets the row-sum roundoff compound geometrically in the exponent,
    which matters for the astronomically iterated annealing kernels.  A
    step multiplies only the matrices whose exponent still needs it, each
    by one C-contiguous (d, d) product, so every power is bit for bit the
    loop run on its matrix alone.
    """
    exps = [int(e) for e in exponents]
    if len(exps) != len(stack):
        raise InputError("kernel powers need one exponent per matrix")
    if any(e < 0 for e in exps):
        raise InputError("kernel exponent must be >= 0")
    base = np.array(stack, dtype=np.float64)
    result = np.broadcast_to(np.eye(base.shape[-1]), base.shape).copy()
    while any(exps):
        odd = np.array([e & 1 for e in exps], dtype=bool)
        if odd.any():
            step = result[odd] @ base[odd]
            step /= step.sum(axis=-1, keepdims=True)
            result[odd] = step
        exps = [e >> 1 for e in exps]
        live = np.array([e > 0 for e in exps], dtype=bool)
        if live.any():
            step = base[live] @ base[live]
            step /= step.sum(axis=-1, keepdims=True)
            base[live] = step
    return result


def _row_l1(stack: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """L1 distance of each row of a (k, d, d) stack from its matrix's row of ``ref``."""
    k, d, _ = stack.shape
    out = np.empty((k, d))
    rows = max(1, _DOBRUSHIN_BLOCK_BYTES // (8 * d))
    mats = max(1, rows // d)
    for m in range(0, k, mats):
        for i in range(0, d, rows):
            diff = np.subtract(stack[m:m + mats, i:i + rows], ref[m:m + mats, None], order="C")
            np.abs(diff, diff)
            np.add.reduce(diff, 2, out=out[m:m + mats, i:i + rows])
    return out


def _max_row_l1(stack: np.ndarray) -> np.ndarray:
    """Largest L1 distance between two rows of each matrix of a (k, d, d)
    stack (0 where d = 1); the rows need not be stochastic.

    r_i is the L1 distance of row i from the coordinatewise median of five
    fixed rows, so |x_i - x_j| <= r_i + r_j, tightly on rank-one-plus-
    permutation kernels.  A sweep from the row of largest r gives a lower
    bound t, and one vectorized test keeps the candidate pairs i < j with
    r_j >= fl(t (1 - 4(d + 2)u) - r_i), u = 2^-53 (sums of d terms are
    within a relative d u of exact, the test rounds twice, and sums below
    2^-1021 are exact).  The test runs a block of rows at a time, over the
    rows that pass it against their matrix's largest r, and only candidate
    pairs are evaluated.  Each |x_i - x_j| is summed along one contiguous
    row, so every maximum is bit for bit a per-pair ``np.abs(a - b).sum()``.
    """
    k, d, _ = stack.shape
    r = _row_l1(stack, np.sort(stack[:, np.linspace(0, d - 1, 5).astype(int)], axis=1)[:, 2])
    best = _row_l1(stack, stack[np.arange(k), r.argmax(1)]).max(1)
    need = (best * (1.0 - 4 * (d + 2) * 2.0**-53))[:, None] - r
    # row i has a candidate only if it passes the test with its matrix's largest r
    keep_m, keep_i = np.nonzero(r.max(1, keepdims=True) >= need)
    per = max(1, _DOBRUSHIN_BLOCK_BYTES // (8 * d))
    for first in range(0, len(keep_m), per):
        m, i = keep_m[first:first + per], keep_i[first:first + per]
        pair, j = np.nonzero((r[m] >= need[m, i, None]) & (np.arange(d) > i[:, None]))
        m, i, l1 = m[pair], i[pair], np.empty(len(pair))
        for part in (slice(s, s + per) for s in range(0, len(pair), per)):
            diff = stack[m[part], i[part]] - stack[m[part], j[part]]
            np.abs(diff, diff)
            np.add.reduce(diff, 1, out=l1[part])
        np.maximum.at(best, m, l1)
    return best


def osc(f) -> float:
    """Oscillation ``max(f) - min(f)`` of a per-state table."""
    v = _as_vector(f, "function values")
    return float(v.max() - v.min())
