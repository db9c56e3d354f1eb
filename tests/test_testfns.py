"""The replicate reduction every bound check reads: dictionary means of
occupation measures, their deviations from exact laws and the L2 level."""

import numpy as np

from fkips.measures import normalized_law
from fkips.testfns import deviations, l2_level, means, osc1_dictionary


def _hists(rng, r, steps, d):
    counts = rng.multinomial(50, np.full(d, 1.0 / d), size=(r, steps))
    return counts / 50.0


def test_means_are_per_replicate_row_sums():
    # d = 10 puts every row sum on numpy's pairwise path
    rng = np.random.default_rng(0)
    hists, tables = _hists(rng, 7, 4, 10), osc1_dictionary(10, 12)
    reference = np.stack([(h[:, None, :] * tables).sum(axis=2) for h in hists])
    got = means(hists, tables)
    assert got.shape == (7, 4, 12)
    assert np.array_equal(got, reference)
    # a replicate's means do not depend on the others
    assert np.array_equal(means(hists[2:3], tables)[0], got[2])


def test_deviations_subtract_the_exact_law_means():
    rng = np.random.default_rng(1)
    hists, tables = _hists(rng, 5, 3, 6), osc1_dictionary(6)
    laws = np.stack([normalized_law(rng.random(6) + 0.1) for _ in range(3)])
    devs = deviations(hists, laws, tables)
    exact = [[float(law @ t) for t in tables] for law in laws]
    assert np.array_equal(devs, means(hists, tables) - exact)
    rms = np.sqrt((devs**2).mean(axis=0))
    assert np.array_equal(l2_level(devs), rms.max(axis=1))
