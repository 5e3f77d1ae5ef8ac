"""High-precision oracles, used only by the tests: mpmath's eta and zeta and
an independent accelerated eta, all in mpmath working precision, so the
tests can compare the double-precision library against 30+ digit values.
"""

from __future__ import annotations

import mpmath


def eta_reference(sigma: float, t: float, dps: int = 40) -> mpmath.mpc:
    with mpmath.workdps(dps):
        return mpmath.altzeta(mpmath.mpc(sigma, t))


def zeta_reference(sigma: float, t: float, dps: int = 40) -> mpmath.mpc:
    with mpmath.workdps(dps):
        return mpmath.zeta(mpmath.mpc(sigma, t))


def eta_alternating_accelerated(sigma: float, t: float, n: int | None = None,
                                dps: int = 40) -> mpmath.mpc:
    """eta(s) by Chebyshev-weighted acceleration of the alternating series.

    Classic three-term scheme: with d_n = ((3+2*sqrt(2))^n + its inverse)/2,
    the weighted partial sum of (-1)^k (k+1)^(-s) converges geometrically
    (ratio 3+2*sqrt(2) for real s; n grows with |t| to keep the target
    precision on the critical strip).
    """
    with mpmath.workdps(dps + 15):
        s = mpmath.mpc(sigma, t)
        if n is None:
            n = 120 + int(3 * abs(t))
        d = (3 + 2 * mpmath.sqrt(2)) ** n
        d = (d + 1 / d) / 2
        b = mpmath.mpf(-1)
        c = -d
        total = mpmath.mpc(0)
        for k in range(n):
            c = b - c
            total += c * mpmath.power(k + 1, -s)
            b = b * (k + n) * (k - n) / ((k + mpmath.mpf("0.5")) * (k + 1))
        return +(total / d)


def diff(value: complex, reference: mpmath.mpc) -> float:
    """|value - reference| as a double."""
    return float(abs(mpmath.mpc(value.real, value.imag) - reference))
