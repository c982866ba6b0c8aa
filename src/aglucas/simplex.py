"""The extremal search's two derivative-free minimizers.

``minimize`` is Nelder-Mead over an objective that takes stacks of points:
one simplex run asks for several points at once where the method allows, so
that an objective which solves a stack of points in one call (the extremal
search's) pays its fixed cost once per stack.  ``minimize_scalar`` is
Brent's bounded minimization of a function of one variable (Brent,
Algorithms for Minimization without Derivatives, 1973).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimplexResult:
    """Where a minimization ended: the best point x and its value fun,
    after nfev evaluations in nit iterations."""

    x: np.ndarray | float
    fun: float
    nfev: int
    nit: int


class _Spent(Exception):
    """The evaluation budget ran out inside a Nelder-Mead step."""


def minimize(fun, x0, *, maxiter: int, xatol: float, fatol: float,
             maxfev=math.inf, adaptive: bool = False,
             initial_simplex=None) -> SimplexResult:
    """Nelder-Mead minimization of fun, which maps a (B, N) stack of points
    to their B values (Nelder & Mead, Comput. J. 7 (1965)).

    Step for step the method of scipy 1.17's
    ``minimize(method="Nelder-Mead")``: its coefficients (with ``adaptive``,
    those of Gao & Han, Comput. Optim. Appl. 51 (2012)), its default simplex
    (each coordinate of x0 in turn scaled by 1.05, or set to 0.00025 where
    it is 0), its xatol/fatol stop, its maxiter and maxfev limits and its
    argsort tie order, so it returns the same x, fun, nfev and nit.  fun is
    asked for several points at once where the method allows: the whole
    initial simplex, a whole shrink, and each iteration's reflection
    together with its inside contraction, which counts toward nfev and
    maxfev only when the step takes it.  Expansions and outside
    contractions are asked for one at a time.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    n = len(x0)
    if adaptive:
        rho, chi, psi, sigma = 1, 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    else:
        rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    if initial_simplex is None:
        sim = np.tile(x0, (n + 1, 1))
        sim[np.arange(1, n + 1), np.arange(n)] = np.where(x0 != 0,
                                                          1.05 * x0, 0.00025)
    else:
        sim = np.array(initial_simplex, dtype=np.float64)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def evaluate(points, out):
        # values of as many leading points as maxfev leaves room for
        nonlocal nfev
        take = int(min(len(points), maxfev - nfev))
        if take:
            out[:take] = fun(points[:take])
            nfev += take
        if take < len(points):
            raise _Spent

    def one(point) -> float:
        value = np.empty(1)
        evaluate(point[None], value)
        return value.item()

    try:
        evaluate(sim, fsim)
    except _Spent:
        pass
    for _ in range(2):     # scipy sorts the initial simplex twice
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    iterations = 1
    while nfev < maxfev and iterations < maxiter:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= xatol and
                    np.abs(fsim[0] - fsim[1:]).max() <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            xcc = (1 - psi) * xbar + psi * sim[-1]
            if nfev + 1 < maxfev:
                # the inside contraction rides along with the reflection
                fxr, fxcc = fun(np.array([xr, xcc])).tolist()
                nfev += 1
            else:
                fxr, fxcc = one(xr), None
            shrink = False
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = one(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = one(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                if fxcc is None:
                    raise _Spent
                nfev += 1
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                # scipy moves each vertex before its evaluation, so the
                # vertex whose evaluation the budget stops is moved too
                end = 1 + int(min(n, maxfev - nfev + 1))
                sim[1:end] = sim[0] + sigma * (sim[1:end] - sim[0])
                evaluate(sim[1:end], fsim[1:end])
            iterations += 1
        except _Spent:
            pass
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
    return SimplexResult(x=sim[0], fun=np.min(fsim), nfev=nfev,
                         nit=iterations)


def minimize_scalar(fun, bounds, *, xatol: float) -> SimplexResult:
    """Bounded Brent minimization of the scalar function fun over the
    interval ``bounds`` = (a, b) (Brent 1973, ch. 5; ``fmin`` of Forsythe,
    Malcolm & Moler, Computer Methods for Mathematical Computations, 1977).

    Step for step the method of scipy 1.17's
    ``minimize_scalar(method="bounded")``: a golden-section step wherever
    the parabola through the last three points is unacceptable, the
    sqrt(eps)|x| + xatol/3 tolerance and a cap of 500 evaluations, so it
    returns the same x, fun and nfev, with nit = nfev as scipy reports it.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = bounds
    # xf is the best point so far, nfc the second best and fulc the third
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = fun(xf)
    nfev = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while nfev < 500 and abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = fun(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return SimplexResult(x=xf, fun=fx, nfev=nfev, nit=nfev)
