"""Two-point hitting probabilities for the symmetric case.

Given a symmetric stable process on the positive half-line killed at 0,
the probability of hitting one of two target points first is computed by
two routes: the inverse of the 3x3 occupation-density matrix, and the
closed ratio of occupation densities.  Both evaluate the same
closed-form occupation density ``killed_resolvent_u``.  Both are
homogeneous of degree zero in the overall density normalization and in
the scale of the points; ``verify hitting`` checks the second, the
process's self-similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .numerics import _exp_or_inf
from .stable import Kind, StableParams, killed_resolvent_u

__all__ = [
    "HitQuery",
    "hit_matrix_method",
    "hit_closed_ratio",
    "hit_prob_lamperti",
]

_COINCIDENCE_TOL = 1e-8


@dataclass(frozen=True)
class HitQuery:
    """Start point x and two distinct positive targets a, b.

    x may sit exactly on a target (the target is then hit at time 0), but
    not merely near one, where the occupation matrix degenerates.
    """

    alpha: float
    x: float
    a: float
    b: float

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise DomainError("points are hit only for alpha in (1, 2)")
        pts = (self.x, self.a, self.b)
        if not all(0.0 < pt < math.inf for pt in pts):
            raise DomainError("x, a, b must be positive and finite")
        scale = max(pts)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gap = abs(pts[i] - pts[j])
            if gap < _COINCIDENCE_TOL * scale and (gap > 0.0 or (i, j) == (1, 2)):
                raise DomainError(
                    "near-coincident points degenerate the occupation matrix"
                )


def _on_target(q: HitQuery) -> float | None:
    """1 or 0 when x is a or b itself, else None."""
    return {q.a: 1.0, q.b: 0.0}.get(q.x)


def hit_matrix_method(q: HitQuery) -> float:
    """P(first hit of {a, b} is at a, before ruin) via the matrix route.

    With U the occupation-density matrix over {x, a, b} and Q = -U^-1,
    the probability is -q(x, a)/q(x, x); the overall density
    normalization cancels in the ratio.
    """
    if (hit := _on_target(q)) is not None:
        return hit
    pts = (q.x, q.a, q.b)
    mat = np.array([[killed_resolvent_u(q.alpha, pi, pj) for pj in pts] for pi in pts])
    # u is homogeneous in the points, so U is divided by its largest entry:
    # otherwise the scale of the points would overflow or underflow U^-1.
    try:
        inv = np.linalg.inv(mat / np.max(np.abs(mat)))
    except np.linalg.LinAlgError:
        raise NumericError("singular occupation matrix") from None
    if inv[0, 0] == 0.0:
        raise NumericError("singular occupation matrix: vanishing diagonal entry")
    # With entries at most 1, 3 * 3 * max|U^-1| bounds |U| |U^-1|.
    condition = 9.0 * float(np.max(np.abs(inv)))
    if not condition <= 1e12:
        raise NumericError(
            "ill-conditioned occupation matrix", detail={"condition": condition}
        )
    return float(-inv[0, 1] / inv[0, 0])


def hit_closed_ratio(q: HitQuery) -> float:
    """Same probability via the printed ratio of occupation densities."""
    if (hit := _on_target(q)) is not None:
        return hit

    def u(p1, p2):
        return killed_resolvent_u(q.alpha, p1, p2)

    denom_1 = u(q.b, q.a)
    denom_2 = u(q.b, q.b)
    if denom_1 == 0.0 or denom_2 == 0.0:
        raise NumericError("vanishing occupation density in the closed ratio")
    num = u(q.x, q.a) / denom_1 - u(q.x, q.b) / denom_2
    den = u(q.a, q.a) / denom_1 - u(q.a, q.b) / denom_2
    if den == 0.0:
        raise NumericError("vanishing denominator in the closed ratio")
    return num / den


def hit_prob_lamperti(kind: Kind, alpha: float, v: float, u: float) -> float:
    """P(the log-scale process hits v before u), symmetric case only.

    The kind's h-exponent at rho = 1/2 (alpha/2 for UP, alpha/2 - 1 for
    DOWN) is applied to the process-scale position e^v of the lower
    target.
    """
    if not (v < 0.0 < u):
        raise DomainError("need v < 0 < u")
    if kind is Kind.STAR:
        raise DomainError("two-point hitting is defined for the UP and DOWN kinds")
    if (eu := _exp_or_inf(u)) == math.inf:
        raise DomainError(f"upper target e^u overflows a float at u={u}")
    f = hit_closed_ratio(HitQuery(alpha, 1.0, math.exp(v), eu))
    expo = kind.h_exponent(StableParams(alpha, 0.5))
    prob = math.exp(v) ** expo * f
    if not (-1e-10 <= prob <= 1.0 + 1e-10):
        raise NumericError(
            "hitting probability escaped [0, 1]", detail={"value": prob}
        )
    return min(max(prob, 0.0), 1.0)
