"""Subgrid-scale (LES) eddy-viscosity models.

Alya's default implementation lets the user pick among several turbulence
models at runtime and evaluates turbulent viscosity in a dedicated
subroutine at the beginning of each time step; the paper's *specialization*
hard-wires the **Vreman** model and folds its evaluation into the assembly
("calculate it directly on the fly when performing the assembly"), one value
per element because the velocity gradient is constant on linear tets.

This module provides the model zoo (the generality the baseline carries) in
vectorized numpy form, operating on per-element (or per-Gauss-point)
velocity-gradient tensors ``g[..., i, j] = du_i/dx_j``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict

import numpy as np

__all__ = [
    "TurbulenceModel",
    "vreman_viscosity",
    "smagorinsky_viscosity",
    "wale_viscosity",
    "eddy_viscosity",
    "VREMAN_C",
    "SMAGORINSKY_CS",
]

#: Vreman model constant (c ~ 2.5 * Cs^2 with Cs = 0.17).
VREMAN_C = 0.07225

#: Classical Smagorinsky constant.
SMAGORINSKY_CS = 0.17

#: WALE constant.
WALE_CW = 0.325

_EPS = 1e-30


class TurbulenceModel(enum.IntEnum):
    """Runtime model selector (the flag specialization removes)."""

    NONE = 0
    VREMAN = 1
    SMAGORINSKY = 2
    WALE = 3


def vreman_viscosity(
    grad: np.ndarray, delta2: np.ndarray, c: float = VREMAN_C
) -> np.ndarray:
    """Vreman (2004) eddy viscosity.

    Parameters
    ----------
    grad:
        ``(..., 3, 3)`` velocity gradients ``g[i, j] = du_i/dx_j``.
    delta2:
        ``(...)`` squared filter width (element scale squared).
    c:
        Model constant.

    Notes
    -----
    With ``alpha_ij = du_j/dx_i`` (transpose of our ``grad``) and
    ``beta_ij = delta^2 alpha_mi alpha_mj``::

        B_beta = b11 b22 - b12^2 + b11 b33 - b13^2 + b22 b33 - b23^2
        nu_t   = c * sqrt(B_beta / (alpha_ij alpha_ij))

    and ``nu_t = 0`` where the gradient vanishes.  ``B_beta`` is provably
    non-negative, a property the test suite checks with hypothesis.
    """
    grad = np.asarray(grad, dtype=np.float64)
    alpha = np.swapaxes(grad, -1, -2)  # alpha_ij = du_j/dx_i
    aa = np.einsum("...ij,...ij->...", alpha, alpha)
    beta = delta2[..., None, None] * np.einsum(
        "...mi,...mj->...ij", alpha, alpha
    )
    bbeta = (
        beta[..., 0, 0] * beta[..., 1, 1]
        - beta[..., 0, 1] ** 2
        + beta[..., 0, 0] * beta[..., 2, 2]
        - beta[..., 0, 2] ** 2
        + beta[..., 1, 1] * beta[..., 2, 2]
        - beta[..., 1, 2] ** 2
    )
    # Clip tiny negative values from roundoff before the sqrt.
    bbeta = np.maximum(bbeta, 0.0)
    return np.where(aa > _EPS, c * np.sqrt(bbeta / np.maximum(aa, _EPS)), 0.0)


def smagorinsky_viscosity(
    grad: np.ndarray, delta2: np.ndarray, cs: float = SMAGORINSKY_CS
) -> np.ndarray:
    """Classical Smagorinsky: ``nu_t = (Cs^2 delta^2) |S|``,
    ``|S| = sqrt(2 S_ij S_ij)`` with the symmetric strain rate ``S``."""
    grad = np.asarray(grad, dtype=np.float64)
    sym = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    smag = np.sqrt(2.0 * np.einsum("...ij,...ij->...", sym, sym))
    return (cs**2) * delta2 * smag


def wale_viscosity(
    grad: np.ndarray, delta2: np.ndarray, cw: float = WALE_CW
) -> np.ndarray:
    """WALE (wall-adapting local eddy viscosity) model.

    ``nu_t = (Cw^2 delta^2) * (Sd:Sd)^{3/2} / ((S:S)^{5/2} + (Sd:Sd)^{5/4})``
    where ``Sd`` is the traceless symmetric part of ``grad^2``.
    """
    grad = np.asarray(grad, dtype=np.float64)
    s = 0.5 * (grad + np.swapaxes(grad, -1, -2))
    g2 = np.einsum("...ik,...kj->...ij", grad, grad)
    sd = 0.5 * (g2 + np.swapaxes(g2, -1, -2))
    trace = np.einsum("...ii->...", sd) / 3.0
    sd = sd - trace[..., None, None] * np.eye(3)
    ss = np.einsum("...ij,...ij->...", s, s)
    sdsd = np.einsum("...ij,...ij->...", sd, sd)
    denom = ss**2.5 + sdsd**1.25
    return np.where(
        denom > _EPS, (cw**2) * delta2 * sdsd**1.5 / np.maximum(denom, _EPS), 0.0
    )


_MODELS: Dict[TurbulenceModel, Callable[..., np.ndarray]] = {
    TurbulenceModel.VREMAN: vreman_viscosity,
    TurbulenceModel.SMAGORINSKY: smagorinsky_viscosity,
    TurbulenceModel.WALE: wale_viscosity,
}


def eddy_viscosity(
    model: TurbulenceModel | int,
    grad: np.ndarray,
    delta2: np.ndarray,
    vreman_c: float = VREMAN_C,
) -> np.ndarray:
    """Dispatch on the runtime model flag (the baseline's code path).

    ``vreman_c`` is the runtime Vreman constant (``AssemblyParams.vreman_c``,
    read by the baseline kernels as the ``vreman_c`` runtime parameter);
    the other models keep their fixed constants.
    """
    model = TurbulenceModel(model)
    if model is TurbulenceModel.NONE:
        return np.zeros(np.asarray(grad).shape[:-2])
    if model is TurbulenceModel.VREMAN:
        return vreman_viscosity(grad, delta2, vreman_c)
    return _MODELS[model](grad, delta2)
