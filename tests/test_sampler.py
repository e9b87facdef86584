"""The DP's mid-cut law against an independent Monte Carlo sampler of the bridge.

Exact enumeration checks the DP only up to L = 9.  Past it, trajectories of the
free dynamics are sampled from the slice rules stated here, post-selected on the
horizon after L slices, and their mid-cut profiles compared with the DP law: the
mean area by a z-score, the whole law by a chi-square over profiles.  The sampler
reads no package kernel, only the horizon and the mid-cut row.  Both thresholds
were fixed before the first run; with a fixed seed each check is deterministic.
"""

import math

import numpy as np
import pytest

from depevap import ModelParams
from depevap.entropy import mid_cut_row, midcut_distribution
from depevap.surface import horizon_profile

MAX_Z = 5.0  # |z| of the sampled mean area
MIN_P_VALUE = 1e-6  # chi-square p-value of the sampled profile counts


def sample_midcut_profiles(L, p, trajectories, seed):
    """Profiles (accepted, L + 2) after slice mid_cut_row(L) of the reflecting
    trajectories that are back at the horizon after slice L.

    Slice t updates every site i in 1..L with i + t odd, each independently
    given its frozen neighbours: a valley deposits (+2) with probability p/2,
    a peak evaporates (-2) with (1 - p)/2, and a peak at h = 1 stays (the
    reflecting rule).  Sites 1 and L stand next to the walls at 0, so they are
    never valleys and stay at h = 1.
    """
    rng = np.random.default_rng(seed)
    horizon = horizon_profile(L).astype(np.int8)
    h = np.tile(horizon, (trajectories, 1))
    for t in range(1, L + 1):
        first = 1 + t % 2
        site = h[:, first:L + 1:2]  # a view: the slice's sites, updated in place
        left, right = h[:, first - 1:L:2], h[:, first + 1:L + 2:2]
        u = rng.random(site.shape)
        valley = (left > site) & (right > site)
        peak = (left < site) & (right < site) & (site > 1)
        site += 2 * (valley & (u < p / 2)).view(np.int8)
        site -= 2 * (peak & (u < (1 - p) / 2)).view(np.int8)
        if t == mid_cut_row(L):
            cut = h.copy()
    return cut[(h == horizon).all(axis=1)]


def _area(heights, L):
    """Area above the horizon of each profile, in blocks of two."""
    return heights[:, 1:L + 1].sum(axis=1, dtype=np.int64) - (L + 1) // 2


def _chi_square_p_value(x, dof):
    """P(chi2_dof >= x) by the Wilson-Hilferty cube-root normal approximation."""
    s = 2 / (9 * dof)
    z = ((x / dof) ** (1 / 3) - (1 - s)) / math.sqrt(s)
    return 0.5 * math.erfc(z / math.sqrt(2))


def _pooled_chi_square(observed, expected):
    """(chi-square, degrees of freedom) over the bins with expected counts >= 5 and
    one pooled bin for the rest, merged into the smallest kept bin while it is below 5."""
    order = np.argsort(-expected, kind="stable")
    observed, expected = observed[order].astype(float), expected[order]
    keep = int((expected >= 5).sum())
    observed = [*observed[:keep], observed[keep:].sum()]
    expected = [*expected[:keep], expected[keep:].sum()]
    while len(expected) > 1 and expected[-1] < 5:
        observed[-2:] = [sum(observed[-2:])]
        expected[-2:] = [sum(expected[-2:])]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return chi2, len(expected) - 1


def test_chi_square_p_value_is_the_tail():
    # (x, dof, exact upper tail): the approximation is within 1% at the usual quantiles
    # and reads high by under 30% at the threshold's 1e-6 for dof >= 20
    for x, dof, tail, rel in ((18.307, 10, 0.05, 0.01), (124.342, 100, 0.05, 0.01),
                              (135.807, 100, 0.01, 0.01), (67.328, 100, 0.995, 0.01),
                              (65.421, 20, 1e-6, 0.3), (431.141, 300, 1e-6, 0.3)):
        assert _chi_square_p_value(x, dof) == pytest.approx(tail, rel=rel), (x, dof)


@pytest.mark.parametrize("L,p,trajectories,seed", [
    (17, 0.25, 60_000, 1),
    (21, 0.25, 100_000, 2),
    (13, 0.5, 200_000, 3),
])
def test_sampled_midcut_law_is_the_dp_law(L, p, trajectories, seed):
    # the DP law serves both colorings (colors cancel from profile marginals), so the
    # uncolored DP is the reference
    dist = midcut_distribution(ModelParams(L=L, p=p, colored=False), mid_cut_row(L))
    sampled = sample_midcut_profiles(L, p, trajectories, seed)
    n = len(sampled)
    assert n >= 1000, n

    area = _area(dist.heights, L)
    variance = float(dist.probs @ (area - dist.mean_area) ** 2)
    z = (_area(sampled, L).mean() - dist.mean_area) / math.sqrt(variance / n)
    assert abs(z) <= MAX_Z, z

    # every sampled profile lies in the DP's support
    rows, counts = np.unique(sampled, axis=0, return_counts=True)
    support = {row.tobytes(): k for k, row in enumerate(dist.heights)}
    at = np.array([support.get(row.tobytes(), -1) for row in rows])
    assert (at >= 0).all(), rows[at < 0]
    observed = np.zeros(len(dist.probs), dtype=np.int64)
    observed[at] = counts
    chi2, dof = _pooled_chi_square(observed, n * dist.probs)
    assert dof >= 10, dof
    assert _chi_square_p_value(chi2, dof) >= MIN_P_VALUE, (chi2, dof)
