"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its seed and size, so the same seed
gives the same inputs.  Point workloads are stratified rather than plainly
random: the share of each route and of each refusal is then fixed by the
design, and a seed moves only the positions inside each stratum.  That keeps
medians and shares steady from seed to seed without filtering any point out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

LN2 = math.log(2.0)
EXCEPTIONAL_SPACING = 2.0 * math.pi / LN2

# The documented reach of the stepwise route: near an exceptional point with
# |t| above this the library may refuse with a typed error instead of a value.
STEPWISE_T_LIMIT = 20.0

SCAN_SIGMA = 0.5
SCAN_T_MAX = 50.0
SCAN_STEP = 0.01


@dataclass(frozen=True)
class Point:
    """One eta or zeta call.

    promised: the library documents a value here, so a raised error is a
    failed operation.  Where it is False the library may refuse with a typed
    EtaZetaError (the stepwise route's |t| limit) or return a value.
    """

    function: str
    sigma: float
    t: float
    promised: bool = True


def strip_points(seed: int, n_sigma: int = 40, n_t: int = 100) -> list[Point]:
    """One point per cell of an n_sigma x n_t grid over -0.5 <= sigma <= 3,
    -170 <= t <= 170, uniform inside its cell; eta and zeta alternate like a
    chess board.  The order is shuffled so consecutive calls share no work."""
    rng = random.Random(seed)
    points = []
    for i in range(n_sigma):
        for j in range(n_t):
            sigma = -0.5 + 3.5 * (i + rng.random()) / n_sigma
            t = -170.0 + 340.0 * (j + rng.random()) / n_t
            points.append(Point("eta" if (i + j) % 2 else "zeta", sigma, t))
    rng.shuffle(points)
    return points


def _offsets(rng: random.Random, count: int) -> list[tuple[float, float]]:
    """`count` displacements in uniform directions whose lengths are
    log-uniform over 1e-10 .. 1e-4, one from each of `count` equal strata
    of log-length, in seeded order."""
    strata = list(range(count))
    rng.shuffle(strata)
    offsets = []
    for k in strata:
        dist = 10.0 ** (-10.0 + 6.0 * (k + rng.random()) / count)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        offsets.append((dist * math.cos(angle), dist * math.sin(angle)))
    return offsets


def exceptional_points(seed: int, blocks: int = 20) -> list[Point]:
    """Points near the hard spots, each evaluated by both eta and zeta.

    A block holds one point near each target of three kinds, with equal
    weight per kind: 1 +/- 2 pi i n / ln 2 for n = 1..19, their sigma = 0
    images, and ten points each near s = 0 and s = 1.  Within each kind the
    distances are stratified; signs, distances and directions are seeded and
    the order is shuffled.
    """
    rng = random.Random(seed)
    points = []
    for _ in range(blocks):
        kinds = [[("near_one", 1.0, rng.choice((-1.0, 1.0)) * n * EXCEPTIONAL_SPACING)
                  for n in range(1, 20)],
                 [("sigma0_image", 0.0, rng.choice((-1.0, 1.0)) * n * EXCEPTIONAL_SPACING)
                  for n in range(1, 20)],
                 [("special", 0.0, 0.0)] * 10,
                 [("special", 1.0, 0.0)] * 10]
        for targets in kinds:
            for (kind, base_sigma, base_t), (d_sigma, d_t) in zip(
                    targets, _offsets(rng, len(targets))):
                sigma, t = base_sigma + d_sigma, base_t + d_t
                for function in ("eta", "zeta"):
                    # eta near 1 + 2 pi i n / ln 2 is direct; zeta there and both
                    # functions at the sigma = 0 images take the stepwise route,
                    # which the library documents for |t| <= 20 only.
                    stepwise = kind == "sigma0_image" or (kind == "near_one" and function == "zeta")
                    promised = not (stepwise and abs(t) > STEPWISE_T_LIMIT)
                    points.append(Point(function, sigma, t, promised))
    rng.shuffle(points)
    return points


def scan_argv(jobs: int, t_max: float = SCAN_T_MAX) -> list[str]:
    """Arguments of `eta-zeta scan` for the line workloads."""
    return ["scan", "zeta", "--sigma", repr(SCAN_SIGMA), "--t-min", "0",
            "--t-max", repr(t_max), "--step", repr(SCAN_STEP), "--jobs", str(jobs)]


SCAN_WORKLOADS = ("line_scan",)
# The scan workload also runs the grid through a process pool of this size,
# whose bytes must equal the single-process scan's.
POOL_JOBS = 2
POINT_WORKLOADS = {"strip_points": strip_points, "exceptional": exceptional_points}
WORKLOADS = (*SCAN_WORKLOADS, *POINT_WORKLOADS)

# Smoke-test sizes: a few points per workload, every route still present.
TINY_POINTS = {"strip_points": {"n_sigma": 4, "n_t": 6},
               "exceptional": {"blocks": 1}}
TINY_SCAN_T_MAX = 0.5


def points_for(name: str, seed: int, tiny: bool = False) -> list[Point]:
    return POINT_WORKLOADS[name](seed, **(TINY_POINTS[name] if tiny else {}))
