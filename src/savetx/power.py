"""Slot rates and power allocation over the private/common channel pair.

Two budget regimes: ``stop_rate`` spends a whole battery in one slot (the
save-then-transmit case), water-filling it over both channels when the
common channel is held; ``conventional_power`` and ``solve_water_level``
hold an average-power constraint (the conventional-supply benchmark).
``stop_rate`` is one branch-free ``np.where`` expression over the broadcast
arguments, with no access taken as a common channel of gain 0.

Importing this module needs numpy alone: scipy's exponential integral and
root finder are imported inside ``_mean_power`` and ``solve_water_level``,
on first use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBracket
from .models import AccessModel, GainDistribution

__all__ = [
    "WaterLevel",
    "stop_rate",
    "conventional_power",
    "solve_water_level",
]


@dataclass(frozen=True)
class WaterLevel:
    """Lagrange multiplier of the average-power constraint."""

    xi: float

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("water level must be > 0")


def _log(x, base: float, out=None):
    return (np.log2 if base == 2.0 else np.log)(x, out=out)


def stop_rate(b, h, hc, phi, base: float = 2.0):
    """Rate when the whole battery is spent this slot.

    With channel access the budget is water-filled across both channels:
    an interior split equalizes 1/gain + power, otherwise the whole budget
    goes to the stronger (live) channel.  Without access everything goes
    to the private channel.  Accepts scalars or broadcastable arrays and
    returns their broadcast shape (a float for scalars); an empty or
    negative battery gives rate 0.
    """
    b, h, hc, phi = (np.asarray(a) for a in (b, h, hc, phi))
    b = np.fmax(b, 0.0)  # fmax also sends a NaN battery to 0
    live = phi == 1
    if live.any():
        # no access is a dead common channel: its term below is log(1) = 0
        cc = np.where(live, hc, 0.0)
        both = (h > 0) & (cc > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(both, 1.0 / cc - 1.0 / h, 0.0)
        interior = both & (np.abs(gap) < b)
        # outside the interior the whole budget goes to the stronger
        # channel, and a dead one (gain 0 or no access) never wins
        p_pri = np.where(interior, 0.5 * (b + gap),
                         np.where(h >= cc, b, 0.0))
        rate = (_log(1.0 + h * p_pri, base)
                + _log(1.0 + cc * (b - p_pri), base))
    else:
        rate = _log(1.0 + h * b, base,
                    out=np.empty(np.broadcast(b, h, hc, phi).shape))
    return rate if rate.shape else float(rate)


def check_gamma(gamma) -> float:
    """A rate threshold as a float: finite and >= 0.  A NaN threshold
    never stops, so a rule with one would run to the slot cap."""
    if not 0.0 <= gamma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma}")
    return float(gamma)


def conventional_power(h: float, level: WaterLevel):
    """Water-filling power (1/xi - 1/h)^+ for a conventional supply."""
    h = np.asarray(h, dtype=float)
    with np.errstate(divide="ignore"):
        p = np.where(h > 0, 1.0 / level.xi - 1.0 / np.where(h > 0, h, 1.0),
                     0.0)
    p = np.maximum(p, 0.0)
    return float(p) if p.shape == () else p


def _mean_power(dist: GainDistribution, xi: float) -> float:
    """E[(1/xi - 1/H)^+] under a gain distribution, exact: a closed form
    for an exponential gain, a sum for the others.

    Markov gains enter through their stationary distribution (the power
    constraint is a long-run average).
    """
    if dist.kind == "constant":
        return max(1.0 / xi - 1.0 / dist.value, 0.0) if dist.value > 0 else 0.0
    if dist.kind in ("discrete", "markov"):
        if dist.kind == "markov":
            from .models import stationary_distribution

            vals = np.asarray(dist.chain.states)
            probs = stationary_distribution(dist.chain)
        else:
            vals = np.asarray(dist.values)
            probs = np.asarray(dist.probabilities)
        p = np.where(vals > 0,
                     np.maximum(1.0 / xi - 1.0 / np.where(vals > 0, vals, 1.0),
                                0.0), 0.0)
        return float(p @ probs)
    from scipy.special import exp1

    # exponential of mean m, z = xi / m:
    # int_xi^inf (1/xi - 1/g) e^(-g/m) / m dg = e^(-z) / xi - E1(z) / m
    m = dist.mean
    z = xi / m
    return float(math.exp(-z) / xi - exp1(z) / m)


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

    def total(xi: float) -> float:
        return _mean_power(private, xi) + access.p_s * _mean_power(common, xi)

    from scipy import optimize

    lo, hi = 1e-12, 1e12
    if total(lo) < p_bar or total(hi) > p_bar:
        raise NoBracket("average power target cannot be bracketed")
    xi = optimize.brentq(lambda x: total(x) - p_bar, lo, hi,
                         rtol=rel_tol, maxiter=500)
    return WaterLevel(float(xi))
