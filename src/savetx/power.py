"""Slot rates and power allocation over the private/common channel pair.

Two budget regimes: ``stop_rate`` spends a whole battery in one slot (the
save-then-transmit case), water-filling it over both channels when the
common channel is held; ``solve_water_level`` finds the level xi at which
the water-filling powers (1/xi - 1/gain)^+ meet an average-power
constraint (the conventional-supply benchmark, spent by
``simulate.run_supplies``).
``stop_rate`` is branch-free arithmetic over the broadcast arguments, with
no access taken as a common channel of gain 0: the interior split, clipped
to the budget, is the water-filling split, and only entries whose gains
are both below 1/DBL_MAX are selected with ``np.where``.

Importing this module needs numpy alone: scipy's exponential integral and
root finder are imported inside ``_power_curve`` and ``solve_water_level``,
on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBracket
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
    never stops, so a rule with one would run to the slot cap."""
    if not 0.0 <= gamma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma}")
    return float(gamma)


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


def solve_water_level(private: GainDistribution, common: GainDistribution,
                      access: AccessModel, p_bar: float,
                      rel_tol: float = 1e-12) -> WaterLevel:
    """Find xi with E[P(H)] + p_s E[Pc(Hc)] = p_bar.

    Brent's method over xi; the expectations are exact: a closed form in
    the exponential integral E1 for exponential gains, sums for the
    others.
    """
    if not p_bar > 0:  # NaN fails the comparison
        raise ValueError("p_bar must be > 0")

    private_power, common_power = _power_curve(private), _power_curve(common)

    def total(xi: float) -> float:
        return private_power(xi) + access.p_s * common_power(xi)

    from scipy import optimize

    lo, hi = 1e-12, 1e12
    if total(lo) < p_bar or total(hi) > p_bar:
        raise NoBracket("average power target cannot be bracketed")
    xi = optimize.brentq(lambda x: total(x) - p_bar, lo, hi,
                         rtol=rel_tol, maxiter=500)
    return WaterLevel(float(xi))
