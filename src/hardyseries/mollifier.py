"""Compactly supported smoothing bump and the weighted square sum it damps.

The bump lives on [0, 1/175], is C-infinity, integrates to exactly one, and
stays below the ceiling 176.  A ceiling that close to the reciprocal support
width forces a plateau shape: the profile is

    Phi(x) = (175 / (1 - eps)) * psi(175 x),
    psi(u) = S(u / eps) * S((1 - u) / eps),      eps = 0.005,

where S(v) = g(v) / (g(v) + g(1-v)) with g(v) = exp(-1/v) is the classical
smooth step (so psi is built out of the exp(-1/(u(1-u))) kernel; the plain
normalized kernel itself peaks at 456 and cannot satisfy the ceiling).
S(v) + S(1-v) = 1 makes int psi = 1 - eps exact, hence int Phi = 1 exactly
and the peak is 175 / (1 - eps) = 175.88 <= 176.

The transform convention is hat-Phi(x) = int Phi(t) e^(-i x t) dt, so
|hat-Phi| <= 1 and |hat-Phi'| <= 1/175 (the support bound on the first
moment; by symmetry the true value is 1/350).  Parseval then reads
int |hat-Phi|^2 = 2 pi int Phi^2.

Smoothing a series with the bump damps its coefficients to

    b_n = a_n hat-Phi(2 pi delta lambda_n),

i.e. the transform argument absorbs a 2 pi: the smoothing is the unit-mass
window (1/(2 pi delta)) Phi(t / (2 pi delta)) along the vertical line.
``weighted_square_sum`` bounds the damped coefficients' weighted square sum,
which with that angular scale obeys

    sum |b_n|^2 / (n + alpha) <= int Phi^2 / (2 delta) + O(1) <= 90 / delta

for delta < 0.05 (the plateau gives int Phi^2 = 175.7); without it the sum
comes out 2 pi times larger and no admissible profile can keep it under
90/delta.
"""

from __future__ import annotations

import math

import numpy as np

from . import special as sp
from .errors import InvalidParameterError, check

__all__ = [
    "BUMP",
    "BumpFunction",
    "bump_hat",
    "weighted_square_sum",
]

SUPPORT_END = 1.0 / 175.0
EDGE_FRACTION = 0.005  # plateau edge width in the unit-interval coordinate
PEAK = 175.0 / (1.0 - EDGE_FRACTION)


def _smoothstep(v: np.ndarray) -> np.ndarray:
    """S(v) = g(v) / (g(v) + g(1-v)), g(v) = exp(-1/v); 0 below 0, 1 above 1."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[v <= 0.0] = 0.0
    out[v >= 1.0] = 1.0
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    with np.errstate(under="ignore"):
        ga = np.exp(-1.0 / vm)
        gb = np.exp(-1.0 / (1.0 - vm))
    out[mid] = ga / (ga + gb)
    return out


# 64-point Gauss-Legendre rule for the two edge layers; the plateau parts of
# int Phi^2 and of the transform have closed forms.
_GL_N = 64
_nodes, _weights = np.polynomial.legendre.leggauss(_GL_N)


class BumpFunction:
    """The concrete plateau bump; evaluate with ``value``."""

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = 175.0 * x
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(u)
        ui = u[inside]
        out[inside] = PEAK * _smoothstep(ui / EDGE_FRACTION) * _smoothstep(
            (1.0 - ui) / EDGE_FRACTION
        )
        return out

    def l2_squared(self) -> float:
        """int Phi^2 over the support (plateau exact, edges by quadrature)."""
        plateau = PEAK ** 2 * (1.0 - 2.0 * EDGE_FRACTION) / 175.0
        # map to the left edge [0, eps] in u; right edge matches by symmetry
        un = 0.5 * EDGE_FRACTION * (_nodes + 1.0)
        wn = 0.5 * EDGE_FRACTION * _weights
        edge_sq = float(
            np.sum(wn * (PEAK * _smoothstep(un / EDGE_FRACTION)) ** 2)
        )
        return plateau + 2.0 * edge_sq / 175.0

    @property
    def total_variation(self) -> float:
        return 2.0 * PEAK


BUMP = BumpFunction()

_t_left = (0.5 * EDGE_FRACTION * (_nodes + 1.0)) / 175.0
_w_left = (0.5 * EDGE_FRACTION * _weights) / 175.0
_t_right = SUPPORT_END - _t_left[::-1]
_w_right = _w_left[::-1]
_LAYER_T = np.concatenate([_t_left, _t_right])
_LAYER_W = np.concatenate([_w_left, _w_right])
_LAYER_PHI = BUMP.value(_LAYER_T)
_PLATEAU_LO = EDGE_FRACTION / 175.0
_PLATEAU_HI = (1.0 - EDGE_FRACTION) / 175.0


def bump_hat(x) -> complex | np.ndarray:
    """hat-Phi(x) = int_0^(1/175) Phi(t) e^(-i x t) dt.

    Plateau segment integrated in closed form, edge layers by 64-point
    Gauss-Legendre (the phase across a layer stays below ~9 radians for
    |x| <= 3e5, well inside the rule's accuracy range), summed by
    ``special._head_sum``: one NUFFT of the 128 layer nodes on an evenly
    spaced grid of at least 128 points.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    vals = sp._head_sum(1j * x_arr, _LAYER_T, _LAYER_W * _LAYER_PHI)
    small = np.abs(x_arr) * (_PLATEAU_HI - _PLATEAU_LO) < 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (
            PEAK
            * (np.exp(-1j * x_arr * _PLATEAU_LO) - np.exp(-1j * x_arr * _PLATEAU_HI))
            / (1j * x_arr)
        )
    plateau = np.where(
        small,
        PEAK
        * (_PLATEAU_HI - _PLATEAU_LO)
        * (1.0 - 0.5j * x_arr * (_PLATEAU_LO + _PLATEAU_HI)),
        plateau,
    )
    out = vals + plateau
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(out[0])
    return out


#: Transform argument per unit (delta * lambda_n): the smoothing window is
#: Phi(t / (2 pi delta)) / (2 pi delta), hence the angular factor.
ANGULAR_SCALE = 2.0 * math.pi


def weighted_square_sum(alpha: float, delta: float, n_head: int = 20000) -> dict:
    """sum_{n>=1} |hat-Phi(2 pi delta lambda_n)|^2 / (n + alpha) for a_n = 1.

    Head terms summed directly (|hat-Phi|^2 on a 20000-point grid, linear in
    between), the rest through the substitution u = 2 pi delta lambda: the
    range integral (1/(2 pi delta)) int |hat-Phi(u)|^2 du, quadrature up to
    u = 3e5 plus the total-variation envelope (TV/u)^2 beyond it.  Returns the
    estimate, an upper bound including the sum-integral correction, and the
    pieces.
    """
    if not 0 < alpha <= 1:
        raise InvalidParameterError("alpha must lie in (0, 1]")
    delta = check("delta", delta)
    scale = ANGULAR_SCALE * delta
    n = np.arange(1, n_head + 1)
    u_head = scale * (np.log(n + alpha) - math.log(alpha))
    table_u = np.linspace(0.0, max(u_head[-1] * 1.01, 10.0), 20000)
    head_sq = np.interp(u_head, table_u, np.abs(bump_hat(table_u)) ** 2)
    head = float(np.sum(head_sq / (n + alpha)))

    u0 = float(u_head[-1])
    tail_cut = 3.0e5  # where the tail quadrature hands over to the envelope
    m = max(2048, int((tail_cut - u0) / 20.0))
    grid = np.linspace(u0, tail_cut, m + 1)
    vals = np.abs(bump_hat(grid)) ** 2
    integral = float(np.trapezoid(vals, grid)) / scale
    tv = BUMP.total_variation
    envelope_tail = tv ** 2 / tail_cut / scale
    # sum-vs-integral slack: |f'(x)| <= (1 + 2 scale sup|hat-Phi'|)/(x+alpha)^2
    deriv_cap = 1.0 + 2.0 * scale / 175.0
    correction = 0.5 * deriv_cap * (math.pi ** 2 / 6.0)
    value = head + integral + envelope_tail
    return {
        "value": value,
        "upper": value + correction,
        "head": head,
        "tail_integral": integral,
        "envelope_tail": envelope_tail,
        "correction": correction,
        "chain_bound": BUMP.l2_squared() / (2.0 * delta) + correction,
    }
