"""The in-package exponential integral (``savetx.expint``) against mpmath
at 30 digits, its float path against its array path, its Taylor table
against a regeneration, and the stop moments' tail mean against scipy's
``exp1``."""
import math
import types

import mpmath as mp
import numpy as np
import pytest

from savetx import expint
from savetx.solver import _log_mean

from oracles import _tail_log

# each piece's edges, and the edges of the Taylor pieces between them
EDGES = [1.0, 16.0] + [2.0 ** e * (1 + j / 4) for e in range(4)
                       for j in range(1, 4)] + [2.0, 4.0, 8.0]
GRID = np.concatenate([
    np.geomspace(1e-12, 700.0, 2000),
    [np.nextafter(e, d) for e in EDGES for d in (0.0, np.inf)], EDGES,
    [1e3, 1e6, 1e12]])


def exact(z, scaled=True):
    """e^z E1(z), or E1(z) when not ``scaled``, at 30 digits."""
    with mp.workdps(30):
        z = mp.mpf(float(z))
        return (mp.exp(z) if scaled else 1) * mp.e1(z)


def relative_errors(values, grid, scaled=True):
    with mp.workdps(30):
        return np.array([float(abs(mp.mpf(float(v)) / exact(z, scaled) - 1))
                         for v, z in zip(values, grid)])


def taylor_table():
    """Each piece's Taylor coefficients of S(z) = e^z E1(z) about its
    centre c, from S(c) and the ODE S' = S - 1/z, by mpmath at 40 digits,
    each rounded to the nearest float."""
    rows = []
    with mp.workdps(40):
        for i in range(16):
            c = mp.mpf(2) ** (i // 4) * (1 + mp.mpf(2 * (i % 4) + 1) / 8)
            a = [mp.exp(c) * mp.e1(c)]
            for k in range(16):
                a.append((a[k] - (-1) ** k / c ** (k + 1)) / (k + 1))
            rows.append([float(x) for x in a])
    return np.array(rows)


def test_array_path_matches_mpmath():
    assert relative_errors(expint.exp_e1(GRID), GRID).max() <= 1e-15


def test_float_path_matches_mpmath():
    grid = GRID[GRID <= 700.0]
    values = [expint.e1_float(float(z)) for z in grid]
    assert all(isinstance(v, float) for v in values)
    assert relative_errors(values, grid, scaled=False).max() <= 1e-15
    # E1 underflows past z = 745
    assert [expint.e1_float(z) for z in (746.0, 1e12, math.inf)] == [0.0] * 3


def test_float_path_is_the_array_arithmetic(monkeypatch):
    # with numpy's exp and log in place of math's, the float path's E1 is
    # the array path's S times e^-z bit for bit: up to 1 the array path
    # multiplies the series' E1 by e^z, and above it the float path
    # multiplies the pieces' S by e^-z.  math's exp and log differ from
    # numpy's by an ulp on some arguments
    monkeypatch.setattr(expint, "math", types.SimpleNamespace(
        exp=np.exp, log=np.log, frexp=math.frexp, inf=math.inf))
    e1 = np.array([expint.e1_float(float(z)) for z in GRID])
    s = expint.exp_e1(GRID)
    low = GRID <= 1.0
    assert np.array_equal(np.exp(GRID[low]) * e1[low], s[low])
    assert np.array_equal(e1[~low], np.exp(-GRID[~low]) * s[~low])


def test_ends_and_shapes():
    assert expint.e1_float(0.0) == math.inf
    z = np.array([[0.0, 0.5], [3.0, np.inf]])
    out = expint.exp_e1(z)
    assert out.shape == (2, 2)
    assert out[0, 0] == math.inf and out[1, 1] == 0.0
    assert np.isnan(expint.exp_e1(np.array([np.nan]))).all()
    assert expint.exp_e1(np.empty((0, 3))).shape == (0, 3)
    # an element's value does not depend on the others
    assert np.array_equal([expint.exp_e1(v)[()] for v in GRID],
                          expint.exp_e1(GRID))


def test_taylor_table_is_regenerated():
    assert np.array_equal(expint._TAYLOR, taylor_table())
    assert expint._SERIES == tuple(
        (-1) ** (k + 1) / (k * math.factorial(k)) for k in range(18, 0, -1))


@pytest.mark.parametrize("s", [0.0, 0.1, 1.0, 10.0])
def test_log_mean_matches_scipy_route(s):
    # E[ln(g + s)] for g = u + exp(1) is e^u times the oracle's tail
    # integral, which takes E1 from scipy.  The mean is ln(u + s) + S(u +
    # s), whose terms cancel as u + s -> 0, so the two routes agree to
    # 2e-15 of the terms' size
    u = np.concatenate([np.geomspace(1e-9, 30.0, 200), [0.5, 1.0, 16.0]])
    ours = _log_mean(u, s, 1.0)
    ref = np.exp(u) * _tail_log(u, s)
    size = np.abs(np.log(u + s)) + expint.exp_e1(u + s)
    assert np.all(np.abs(ours - ref) <= 2e-15 * size)
