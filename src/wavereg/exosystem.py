"""Finite-dimensional signal generator producing references and disturbances.

The generator state obeys v' = S v with S = diag(i w_1, ..., i w_q) and feeds
the plant through w(t) = E v(t) (boundary disturbance) and y_ref(t) = -F v(t)
(boundary reference), both expressed as Fourier coefficients on the output
basis. A signal is a list of harmonic terms, each a profile given by its
coefficients on that basis times sin(w t) or cos(w t); a profile known by
samples is projected once, with ``project_profile``, where it is defined.
Real harmonic signals a(theta) sin(w t) + b(theta) cos(w t) are expanded
over conjugate frequency pairs so that E v and F v stay real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import FourierOutputBasis, project_profile

_PRESET_GRID = 4096


@dataclass(frozen=True)
class SignalTerm:
    """One separable term profile(theta) * {sin, cos}(omega t), the profile
    given by its coefficients ``coeffs`` on the Fourier output basis."""

    coeffs: np.ndarray
    temporal: str
    omega: float

    def __post_init__(self):
        if self.temporal not in ("sin", "cos"):
            raise ValueError("temporal factor must be 'sin' or 'cos'")
        if self.temporal == "sin" and self.omega == 0.0:
            raise ValueError("sin term with omega = 0 is identically zero")


def frequencies(terms):
    """The set of frequencies +-omega of the given terms."""
    return {s * term.omega for term in terms for s in (1.0, -1.0)}


@dataclass(frozen=True)
class Exosystem:
    """Diagonal exosystem (omegas, E, F, v0) on W = C^q."""

    omegas: np.ndarray
    E: np.ndarray
    F: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        om = np.asarray(self.omegas, dtype=float)
        if om.ndim != 1 or om.size == 0:
            raise ValueError("omegas must be a nonempty vector")
        if np.unique(om).size != om.size:
            raise ValueError("exosystem frequencies must be distinct")
        q = om.size
        for name, M in (("E", self.E), ("F", self.F)):
            if M.ndim != 2 or M.shape[1] != q:
                raise ValueError(f"{name} must have {q} columns")
        if self.v0.shape != (q,):
            raise ValueError(f"v0 must have shape ({q},)")

    @property
    def q(self):
        return self.omegas.size

    @property
    def S(self):
        return np.diag(1j * self.omegas)


def v_at(exo, t):
    """Exosystem state v(t) = exp(i omega_k t) v0_k, componentwise; one row
    per time for an array of times ``t``."""
    return np.exp(1j * exo.omegas * np.asarray(t)[..., None]) * exo.v0


def signals_at(exo, t):
    """Disturbance and reference coefficients (w, y_ref) at time ``t``; one
    row per time for an array of times ``t``."""
    v = v_at(exo, t)
    return v @ exo.E.T, -(v @ exo.F.T)


def build_exosystem(reference, disturbance, max_order):
    """Assemble the exosystem generating the given reference and disturbance.

    Each harmonic term, with its profile's coefficients on the Fourier output
    basis of order ``max_order``, is expanded over the conjugate frequency
    pair via sin(wt) = (e^{iwt} - e^{-iwt}) / 2i and
    cos(wt) = (e^{iwt} + e^{-iwt}) / 2, so that the all-ones v0 reproduces
    the requested signals exactly.

    Parameters
    ----------
    reference, disturbance : list of SignalTerm
        The tracked signal y_ref and the boundary disturbance d.
    max_order : int
        Angular cutoff of the output basis the profiles are given on.
    """
    freqs = sorted(frequencies([*reference, *disturbance]))
    omegas = np.array(freqs, dtype=float)
    index = {w: k for k, w in enumerate(freqs)}
    dim_y = FourierOutputBasis(max_order).dim
    q = omegas.size

    def accumulate(terms):
        M = np.zeros((dim_y, q), dtype=complex)
        for term in terms:
            if np.shape(term.coeffs) != (dim_y,):
                raise ValueError(f"a term profile needs {dim_y} coefficients, one per output")
            if term.temporal == "sin":
                M[:, index[term.omega]] += -0.5j * term.coeffs
                M[:, index[-term.omega]] += 0.5j * term.coeffs
            else:
                M[:, index[term.omega]] += 0.5 * term.coeffs
                M[:, index[-term.omega]] += 0.5 * term.coeffs
        return M

    E = accumulate(disturbance)
    F = -accumulate(reference)
    return Exosystem(omegas=omegas, E=E, F=F, v0=np.ones(q, dtype=complex))


def require_preset_order(max_order):
    """Raise unless ``max_order`` resolves the non-smooth preset profiles."""
    if max_order < 5:
        raise ValueError("max_order must be at least 5 for the preset signals")


def build_sect5_exosystem(max_order):
    """Exosystem for the annulus experiment signals.

    Generates the reference
    y_ref = -(1/(2 pi^2)) (pi - theta)^2 sin(pi t) - (1/2) sin(theta/2) cos(2 pi t)
    and the disturbance d = cos(theta) sin(2 pi t) + sin(theta) sin(pi t) over
    the frequencies (-2 pi, -pi, pi, 2 pi) with v0 = (1, 1, 1, 1). The four
    profiles are projected on the output basis in one call, from
    ``_PRESET_GRID`` uniform samples each.

    Requires ``max_order >= 5`` so the non-smooth profiles are resolved.
    """
    require_preset_order(max_order)
    theta = 2.0 * np.pi * np.arange(_PRESET_GRID) / _PRESET_GRID
    quadratic, half_sine, cos1, sin1 = project_profile(
        [-((np.pi - theta) ** 2) / (2.0 * np.pi**2), -0.5 * np.sin(theta / 2.0),
         np.cos(theta), np.sin(theta)], max_order)
    reference = [SignalTerm(quadratic, "sin", np.pi), SignalTerm(half_sine, "cos", 2.0 * np.pi)]
    disturbance = [SignalTerm(cos1, "sin", 2.0 * np.pi), SignalTerm(sin1, "sin", np.pi)]
    return build_exosystem(reference, disturbance, max_order)
