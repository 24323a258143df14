"""State metrics and signal extraction.

fidelity, partial trace over the mode, product-basis leg populations,
and a frequency fitter used to verify that the collective Rabi rate of
the dispersive dynamics is g^2/delta-like and photon-number independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    DensityMatrix,
    SpaceDescriptor,
    StateVector,
    basis_index,
)


@dataclass(frozen=True)
class TimeSeries:
    """A sampled real observable: strictly increasing times, one value each."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if times.size < 4:
            raise ValueError("need at least 4 samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def fidelity(a, b: StateVector) -> float:
    """|<b|a>|^2 for a pure ``a``; <b|rho|b> for a mixed ``a``.

    The reference ``b`` is always a pure state.  Clipped to [0, 1]
    against roundoff.
    """
    if a.space.dim != b.space.dim:
        raise ValueError("states live on different spaces")
    if isinstance(a, DensityMatrix):
        val = np.vdot(b.amplitudes, a.matrix @ b.amplitudes).real
    else:
        val = abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
    return float(min(1.0, max(0.0, val)))


def trace_distance(a, b) -> float:
    """(1/2) ||rho_a - rho_b||_1 for states or density matrices."""
    ra = _as_dm_matrix(a)
    rb = _as_dm_matrix(b)
    if ra.shape != rb.shape:
        raise ValueError("states live on different spaces")
    w = np.linalg.eigvalsh(ra - rb)
    return float(0.5 * np.sum(np.abs(w)))


def _as_dm_matrix(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, StateVector):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return np.asarray(state, dtype=complex)


def reduce_to_atoms(state, space: SpaceDescriptor) -> DensityMatrix:
    """Partial trace over the mode factor; returns a density matrix on
    the atoms-only space."""
    if space.no_mode:
        raise ValueError("space has no mode to trace out")
    na, nm = space.atoms_dim, space.mode_dim
    if isinstance(state, StateVector):
        block = state.amplitudes.reshape(na, nm)
        rho = block @ block.conj().T
    else:
        mat = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
        rho = mat.reshape(na, nm, na, nm).trace(axis1=1, axis2=3)
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(space.atoms_only(), rho)


def leg_populations(state, legs) -> np.ndarray:
    """Squared amplitude on each product-basis leg, summed over the mode.

    ``legs`` are atomic labels such as "gg" or "eeee" (or level-index
    tuples); populations of a leg include every Fock level.
    """
    space = state.space
    if isinstance(state, StateVector):
        pops = np.abs(state.amplitudes) ** 2
    else:
        pops = np.diag(state.matrix).real
    pops = pops.reshape(space.atoms_dim, space.mode_dim).sum(axis=1)
    out = []
    for leg in legs:
        flat = basis_index(space.atoms_only(), leg, 0)
        out.append(float(pops[flat]))
    return np.array(out)


def extract_frequency(series: TimeSeries) -> float:
    """Dominant angular frequency of a near-sinusoidal series.

    A Hann-windowed periodogram locates the peak bin, a quadratic fit
    through the three log-power points refines it below bin width, and a
    local least-squares sinusoid fit polishes the estimate.  Relative
    accuracy on clean sinusoids is far below the 1% contract.

    Raises ValueError for flat signals and for series covering fewer
    than two periods of the extracted frequency.
    """
    t = series.times
    y = series.values - np.mean(series.values)
    span = t[-1] - t[0]
    scale = np.max(np.abs(series.values)) + 1.0
    if np.max(np.abs(y)) < 1e-12 * scale:
        raise ValueError("flat signal: no oscillation to fit")

    # uniform resampling guard: the FFT step assumes near-uniform times
    dt = np.diff(t)
    if np.max(dt) > 1.5 * np.min(dt):
        grid = np.linspace(t[0], t[-1], len(t))
        y = np.interp(grid, t, y)
        t = grid

    window = np.hanning(len(y))
    spectrum = np.abs(np.fft.rfft(y * window)) ** 2
    freqs = 2.0 * np.pi * np.fft.rfftfreq(len(y), d=(t[-1] - t[0]) / (len(y) - 1))
    if len(spectrum) < 3:
        raise ValueError("too few samples for a spectrum")
    k = int(np.argmax(spectrum[1:]) + 1)  # skip DC

    # quadratic (parabolic) interpolation on log power around the peak
    if 1 <= k < len(spectrum) - 1 and spectrum[k - 1] > 0 and spectrum[k + 1] > 0:
        la, lb, lc = np.log(spectrum[k - 1 : k + 2])
        denom = la - 2.0 * lb + lc
        shift = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    dw = freqs[1] - freqs[0]
    omega0 = freqs[k] + shift * dw

    # least-squares polish: best sinusoid a cos(w t) + b sin(w t) + c
    def residual(w):
        cols = np.column_stack([np.cos(w * t), np.sin(w * t), np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        r = y - cols @ coef
        return float(r @ r)

    from scipy.optimize import minimize_scalar  # loaded on first use: only this fit needs it

    lo = max(omega0 - 1.5 * dw, 0.25 * dw)
    hi = omega0 + 1.5 * dw
    result = minimize_scalar(residual, bounds=(lo, hi), method="bounded",
                             options={"xatol": 1e-12 * max(omega0, dw)})
    omega = float(result.x)

    if omega * span < 2.0 * 2.0 * np.pi:
        raise ValueError(
            f"series covers {omega * span / (2 * np.pi):.2f} periods of the "
            "extracted frequency; need at least 2"
        )
    return omega
