"""Slot rates and power allocation over the private/common channel pair.

Two budget regimes: ``stop_rate`` spends a whole battery in one slot (the
save-then-transmit case), water-filling it over both channels when the
common channel is held; ``conventional_power`` and ``solve_water_level``
hold an average-power constraint (the conventional-supply benchmark).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

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


def _log(x, base: float):
    return np.log2(x) if base == 2.0 else np.log(x)


def stop_rate(b, h, hc, phi, base: float = 2.0):
    """Rate when the whole battery is spent this slot.

    With channel access the budget is water-filled across both channels:
    an interior split equalizes 1/gain + power, otherwise the whole budget
    goes to the stronger (live) channel.  Without access everything goes
    to the private channel.  Accepts scalars or broadcastable arrays.
    """
    b = np.asarray(b, dtype=float)
    h = np.asarray(h, dtype=float)
    hc = np.asarray(hc, dtype=float)
    phi = np.asarray(phi)
    b, h, hc, phi = np.broadcast_arrays(b, h, hc, phi)
    out = np.zeros(b.shape)
    pos = b > 0

    m0 = pos & (phi == 0)
    out[m0] = _log(1.0 + h[m0] * b[m0], base)

    m1 = pos & (phi == 1)
    if m1.any():
        bb, hh, cc = b[m1], h[m1], hc[m1]
        both = (hh > 0) & (cc > 0)
        with np.errstate(divide="ignore"):
            gap = np.where(both, 1.0 / np.where(cc > 0, cc, 1.0)
                           - 1.0 / np.where(hh > 0, hh, 1.0), 0.0)
        interior = both & (np.abs(gap) < bb)
        p_pri = np.where(interior, 0.5 * (bb + gap),
                         np.where(hh >= cc, bb, 0.0))
        # zero-gain corners: all budget to the live channel
        p_pri = np.where(both | (cc <= 0), p_pri, 0.0)
        p_com = bb - p_pri
        out[m1] = (_log(1.0 + hh * p_pri, base)
                   + _log(1.0 + cc * p_com, base))
    return out if out.shape else float(out)


def conventional_power(h: float, level: WaterLevel):
    """Water-filling power (1/xi - 1/h)^+ for a conventional supply."""
    h = np.asarray(h, dtype=float)
    with np.errstate(divide="ignore"):
        p = np.where(h > 0, 1.0 / level.xi - 1.0 / np.where(h > 0, h, 1.0),
                     0.0)
    p = np.maximum(p, 0.0)
    return float(p) if p.shape == () else p


def _mean_power(dist: GainDistribution, xi: float) -> float:
    """E[(1/xi - 1/H)^+] under a gain distribution.

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
    m = dist.mean
    val, _ = integrate.quad(
        lambda g: (1.0 / xi - 1.0 / g) * np.exp(-g / m) / m,
        xi, np.inf, limit=200)
    return val


def solve_water_level(private: GainDistribution, common: GainDistribution,
                      access: AccessModel, p_bar: float,
                      rel_tol: float = 1e-12) -> WaterLevel:
    """Find xi with E[P(H)] + p_s E[Pc(Hc)] = p_bar.

    Bisection over xi; expectations by quadrature for exponential gains and
    exact sums for discrete/constant ones.
    """
    if p_bar <= 0:
        raise ValueError("p_bar must be > 0")

    def total(xi: float) -> float:
        return _mean_power(private, xi) + access.p_s * _mean_power(common, xi)

    lo, hi = 1e-12, 1e12
    if total(lo) < p_bar or total(hi) > p_bar:
        raise NoBracket("average power target cannot be bracketed")
    xi = optimize.brentq(lambda x: total(x) - p_bar, lo, hi,
                         rtol=rel_tol, maxiter=500)
    return WaterLevel(float(xi))
