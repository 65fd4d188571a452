"""Slot rates and power allocation over the private/common channel pair.

Two budget regimes: ``stop_rate`` spends a whole battery in one slot (the
save-then-transmit case), water-filling it over both channels when the
common channel is held; ``solve_water_level`` finds the level xi at which
the water-filling powers (1/xi - 1/gain)^+ meet an average-power
constraint (the conventional-supply benchmark, spent by
``simulate.run_conventional_supply``), with ``_brent_root``, an
in-package port of scipy's ``brentq`` that returns its root to the last
bit.
``stop_rate`` is branch-free arithmetic over the broadcast arguments, with
no access taken as a common channel of gain 0: the interior split, clipped
to the budget, is the water-filling split, and only entries whose gains
are both below 1/DBL_MAX are selected with ``np.where``.

Importing this module needs numpy alone, and no function here loads
scipy's root finders: the exponential integral ``scipy.special.exp1`` is
the one scipy import, made inside ``_power_curve`` on first use and only
for an exponential gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBracket, NoConvergence
from .models import AccessModel, GainDistribution, _atoms, _reals

__all__ = [
    "WaterLevel",
    "stop_rate",
    "solve_water_level",
]


@dataclass(frozen=True)
class WaterLevel:
    """Lagrange multiplier of the average-power constraint."""

    xi: float

    def __post_init__(self):
        if _reals(self.xi, "xi") <= 0:  # NaN and inf are refused by name
            raise ValueError("xi: water level must be > 0")


def _log(x, base: float, out=None):
    return (np.log2 if base == 2.0 else np.log)(x, out=out)


def stop_rate(b, h, hc, phi, base: float = 2.0):
    """Rate when the whole battery is spent this slot.

    With channel access the budget is water-filled across both channels:
    an interior split equalizes 1/gain + power, otherwise the whole budget
    goes to the stronger (live) channel.  Without access everything goes
    to the private channel.  Accepts scalars or broadcastable arrays and
    returns their broadcast shape (a float for scalars); an empty or
    negative battery gives rate 0, and gains are >= 0.

    The private power is the interior split b/2 + (1/cc - 1/h)/2 clipped
    to [0, b]: past either end the clip is the corner, all to the stronger
    channel, and a dead channel's reciprocal is +inf, so it never wins.
    Where both reciprocals are +inf (both gains 0 or below 1/DBL_MAX)
    their difference is NaN, and those entries take the corner by
    comparing gains.
    Every value equals, bit for bit, that of the form which selects the
    interior and corner cases with ``np.where``.
    """
    b, h, hc, phi = (np.asarray(a) for a in (b, h, hc, phi))
    b = np.fmax(b, 0.0)  # fmax also sends a NaN battery to 0
    live = phi == 1
    shape = np.broadcast(b, h, hc, phi).shape
    if live.any():
        # no access is a dead common channel: its term below is log(1) = 0;
        # abs sends a gain of -0.0 to +0.0, whose reciprocal is +inf
        cc = hc * live
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gap = 1.0 / np.abs(cc) - 1.0 / np.abs(h)
            p_pri = np.add(b, gap, out=np.empty(shape))
        # from here each step writes into p_pri or rate
        p_pri *= 0.5
        # fmin first: a NaN gap (both gains below 1/DBL_MAX) gives b
        np.fmin(p_pri, b, out=p_pri)
        np.fmax(p_pri, 0.0, out=p_pri)
        lost = np.isnan(gap)
        if lost.any():
            p_pri = np.where(lost, b * (h >= cc), p_pri)
        rate = np.multiply(h, p_pri, out=np.empty(shape))
        _log(np.add(rate, 1.0, out=rate), base, out=rate)
        common = np.subtract(b, p_pri, out=p_pri)
        common *= cc
        rate += _log(np.add(common, 1.0, out=common), base, out=common)
    else:
        rate = np.multiply(h, b, out=np.empty(shape))
        _log(np.add(rate, 1.0, out=rate), base, out=rate)
    return rate if rate.shape else float(rate)


def check_gamma(gamma) -> float:
    """A rate threshold as a float: finite and >= 0.  A NaN threshold
    never stops, so a rule with one would run to the slot cap; booleans and
    strings are refused by name, not read as numbers."""
    if _reals(gamma, "gamma") < 0:
        raise ValueError(f"gamma: must be a finite number >= 0, got {gamma}")
    return float(gamma)


def check_p_bar(p_bar) -> float:
    """An average power target as a float: finite and > 0, refused by name
    otherwise (booleans and strings too)."""
    if _reals(p_bar, "p_bar") <= 0:
        raise ValueError(f"p_bar: must be a finite number > 0, got {p_bar}")
    return float(p_bar)


def _power_curve(dist: GainDistribution):
    """The function xi -> E[(1/xi - 1/H)^+] under a gain distribution,
    exact: a closed form for an exponential gain, a sum over the atoms of
    the others.

    A Markov gain's atoms are weighted by its stationary law (the power
    constraint is a long-run average), solved here once per curve.
    """
    if dist.kind == "exponential":
        from scipy.special import exp1

        # exponential of mean m, z = xi / m:
        # int_xi^inf (1/xi - 1/g) e^(-g/m) / m dg = e^(-z) / xi - E1(z) / m
        m = dist.mean

        def exponential(xi: float) -> float:
            z = xi / m
            return float(math.exp(-z) / xi - exp1(z) / m)

        return exponential
    vals, probs = _atoms(dist)
    with np.errstate(over="ignore"):  # a gain below 1/DBL_MAX
        inv = 1.0 / np.where(vals > 0, vals, 1.0)

    def atoms(xi: float) -> float:
        p = np.where(vals > 0, np.maximum(1.0 / xi - inv, 0.0), 0.0)
        return float(p @ probs)

    return atoms


_BRENT_XTOL = 2e-12  # scipy brentq's default absolute tolerance


def _brent_root(f, lo: float, hi: float, rtol: float,
                maxiter: int = 500) -> float:
    """A root of ``f`` between ``lo`` and ``hi``, where f changes sign, by
    Brent's method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 4).

    A step-by-step port of scipy's ``brentq.c``: the same calls to f in the
    same order (f(lo), then f(hi)), the same early returns where f is 0, the
    same interpolate, extrapolate and bisect steps and the same tolerance
    ``delta = (_BRENT_XTOL + rtol*|x|) / 2``, so it returns scipy's
    ``brentq`` root to the last bit (``tests/oracles.py::brentq_water_level``
    is that oracle).  Raises NoBracket when f(lo) and f(hi) share a sign, and
    NoConvergence when f returns NaN or ``maxiter`` steps do not converge.
    """
    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise NoConvergence(f"water level: power curve is NaN at xi={x!r}")
        return fx

    def signbit(v: float) -> bool:
        return math.copysign(1.0, v) < 0

    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if signbit(fpre) == signbit(fcur):
        raise NoBracket("water level: the power curve minus the target has "
                        "one sign at both ends")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and signbit(fpre) != signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_BRENT_XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # a denominator underflowed to 0 (slopes below ~1e-160);
                # C's inf or NaN fails the test below, so this bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NoConvergence(f"water level: no root within {maxiter} Brent "
                        f"steps (last xi={xcur!r})")


def solve_water_level(private: GainDistribution, common: GainDistribution,
                      access: AccessModel, p_bar: float,
                      rel_tol: float = 1e-12) -> WaterLevel:
    """Find xi with E[P(H)] + p_s E[Pc(Hc)] = p_bar.

    Brent's method over xi (``_brent_root``); the expectations are exact: a
    closed form in the exponential integral E1 for exponential gains, sums
    for the others.
    """
    p_bar = check_p_bar(p_bar)
    # brentq's own floor on its relative tolerance (NaN fails it too)
    if not rel_tol >= 4 * np.finfo(float).eps:
        raise ValueError("rel_tol must be >= 4 * machine epsilon")

    private_power, common_power = _power_curve(private), _power_curve(common)

    def total(xi: float) -> float:
        return private_power(xi) + access.p_s * common_power(xi)

    lo, hi = 1e-12, 1e12
    if total(lo) < p_bar or total(hi) > p_bar:
        raise NoBracket("average power target cannot be bracketed")
    return WaterLevel(_brent_root(lambda x: total(x) - p_bar, lo, hi,
                                  rel_tol))
