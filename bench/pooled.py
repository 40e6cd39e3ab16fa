"""Statistical checks whose false-alarm rate is fixed per run, not per test.

A run makes many Monte Carlo checks (48 simulate requests on interactive,
two statistics in each of 10 rounds on paths).  At the verify suites' 3 SE
each check of a correct program fails with probability 0.27%, so a run of
the paths workload would be refused about once in 20 runs by chance alone.
Here every run-level family of such checks shares RUN_FALSE_ALARM: a
check among ``m`` uses the two-sided normal quantile ``z_crit(m)``
(Bonferroni).  The paths workload pools its rounds into one test per
statistic, so its band in absolute terms is narrower than 3 SE of one
round.  Pure arithmetic: ``run.py`` uses it without importing ``pssmp``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

# Chance that a run of a correct program fails a statistical check.
RUN_FALSE_ALARM = 1e-4

# Statistics a paths round puts into its pool (workloads.paths_ops).
POOL_KEYS = {"star_target", "star_exit", "star_up", "p_up", "p_up_fine",
             "down_s", "down_q", "up_s", "up_q", "tilt_n"}


def z_crit(m: int) -> float:
    """|z| bound of each of ``m`` two-sided tests sharing RUN_FALSE_ALARM."""
    return NormalDist().inv_cdf(1.0 - RUN_FALSE_ALARM / (2.0 * m))


def _mean_se(total, total_sq, n):
    mean = total / n
    return mean, math.sqrt(max(total_sq / n - mean * mean, 0.0) / n)


def paths_checks(pools: list[dict]) -> list[tuple[str, str | None]]:
    """Pooled criterion-7 checks over the rounds of a paths run.

    Each pool holds one round's sufficient statistics (``workloads.paths_ops``).
    Returns (key, failure or None) for the STAR up-exit fraction, within
    z SE + 2 x the pooled step-halving drift of its closed form, and the
    tilt-reweighting z-score.
    """
    z = z_crit(2)
    rounds = len(pools)
    target = pools[0]["star_target"]
    n_exit = sum(p["star_exit"] for p in pools)
    frac = sum(p["star_up"] for p in pools) / n_exit
    se = math.sqrt(target * (1.0 - target) / n_exit)
    bias = abs(sum(p["p_up_fine"] - p["p_up"] for p in pools)) / rounds
    frac_failure = None
    if not abs(frac - target) <= z * se + 2.0 * bias:
        frac_failure = (
            f"CheckFailed: star up fraction {frac:.5f} vs {target:.5f} "
            f"(se {se:.4g}, drift {bias:.4g}, z {z:.3f})"
        )

    n = sum(p["tilt_n"] for p in pools)
    m1, se1 = _mean_se(sum(p["down_s"] for p in pools), sum(p["down_q"] for p in pools), n)
    m2, se2 = _mean_se(sum(p["up_s"] for p in pools), sum(p["up_q"] for p in pools), n)
    tilt = (m1 - m2) / math.hypot(se1, se2)
    tilt_failure = None
    if not abs(tilt) <= z:
        tilt_failure = f"CheckFailed: tilt reweighting z = {tilt:.2f} (bound {z:.3f})"
    return [
        (f"pooled star up fraction over {rounds} rounds", frac_failure),
        (f"pooled tilt reweighting z over {rounds} rounds", tilt_failure),
    ]
