"""Fourier-transform approximation from uniform samples, and error sweeps.

The forward transform uses the weights at the negated frequency (the forward
kernel is e^{-2 pi i omega x}); the inverse swaps the roles of frequency and
evaluation point, so the weight frequency parameter is the output abscissa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .grid import SampledFunction, UniformGrid, check_integer, lattice
from .quadrature import apply_weights, monomial_fourier_integral


def _monotone(omegas) -> np.ndarray:
    """omegas as a float array, or ValueError unless 1-d and strictly monotone."""
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1:
        raise ValueError(f"frequencies must be 1-d, got shape {omegas.shape}")
    if not (np.all(omegas[1:] > omegas[:-1]) or np.all(omegas[1:] < omegas[:-1])):
        raise ValueError("frequencies must be strictly increasing or strictly decreasing")
    return omegas


@dataclass(frozen=True)
class SpectrumSamples:
    """Approximate Fourier transform values on a strictly monotone set of frequencies."""

    omegas: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omegas = _monotone(self.omegas)
        values = np.asarray(self.values, dtype=complex)
        if omegas.shape != values.shape:
            raise ValueError("frequency and value arrays must be 1-d and equal length")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "values", values)


class QuadratureErrorRecord(NamedTuple):
    """Quadrature error for a truncated monomial at one frequency.

    A row holds only what it measures: alpha, the interval and n are the
    arguments of the call that made it.
    """

    omega: float
    error: complex

    @property
    def abs_real_error(self) -> float:
        return abs(self.error.real)

    @property
    def abs_imag_error(self) -> float:
        return abs(self.error.imag)


def forward_transform(samples: SampledFunction, omegas) -> SpectrumSamples:
    """Approximate F(omega) = int e^{-2 pi i omega x} f(x) dx from samples.

    The function is taken to vanish outside the sample interval.  The
    frequencies must be 1-d and strictly monotone, as in SpectrumSamples.
    """
    omegas = _monotone(omegas)
    return SpectrumSamples(omegas, apply_weights(samples.grid, -omegas, samples.values))


def inverse_transform(spectrum: SampledFunction, xs) -> np.ndarray:
    """Approximate f(x) = int e^{2 pi i omega x} F(omega) d omega from spectrum samples.

    The spectrum lives on a uniform frequency grid; the integral is truncated
    to that grid's interval.  Returns the reconstruction at each x.
    """
    return apply_weights(spectrum.grid, xs, spectrum.values)


def quadrature_error_monomial(
    alpha: int, omega: float, interval: tuple[float, float], n: int
) -> QuadratureErrorRecord:
    """Quadrature error for the monomial x^alpha truncated to [-1, 1].

    The exact value is the monomial's Fourier integral over [-1, 1]; the
    quadrature runs over the (possibly wider) given interval with the
    truncated integrand sampled at its nodes.
    """
    return _monomial_errors(alpha, interval, n, np.array([float(omega)]))[0]


def error_sweep(
    alpha: int,
    interval: tuple[float, float],
    n: int,
    omega_min: float,
    omega_max: float,
    omega_count: int,
) -> list[QuadratureErrorRecord]:
    """Quadrature errors on an equispaced frequency lattice (endpoints included)."""
    omegas = lattice(omega_min, omega_max, omega_count, ("omega_min", "omega_max", "omega_count"))
    return _monomial_errors(alpha, interval, n, omegas)


def _monomial_errors(
    alpha: int, interval: tuple[float, float], n: int, omegas: np.ndarray
) -> list[QuadratureErrorRecord]:
    check_integer("alpha", alpha, 0, 2)
    a, b = interval
    if a > -1.0 or b < 1.0:
        raise ValueError(f"interval [{a}, {b}] must contain [-1, 1]")
    grid = UniformGrid(a, b, n)
    # x^alpha on the closed interval [-1, 1], zero outside, built on the nodes
    # near it only.  A node a + h k lies within 2**-50 max(|a|, |b|) of its
    # exact value and the nodes increase with k, so every node in [-1, 1]
    # has an index within `slack` of the exact bounds'.
    h = grid.h
    slack = 2 + math.ceil(2.0**-48 * max(-a, b) / h)
    lo = max(0, math.floor((-1.0 - a) / h) - slack)
    hi = min(grid.n, math.ceil((1.0 - a) / h) + slack)
    xs = grid.nodes(np.arange(lo, hi + 1))
    inside = (xs >= -1.0) & (xs <= 1.0)
    samples = np.zeros(grid.n + 1, dtype=complex)
    samples[lo : hi + 1][inside] = xs[inside] ** alpha
    approx = apply_weights(grid, omegas, samples)
    errors = monomial_fourier_integral(alpha, omegas, -1.0, 1.0) - approx
    # tuple.__new__ is what QuadratureErrorRecord._make calls, without a
    # Python-level __new__ per row
    return list(map(tuple.__new__, repeat(QuadratureErrorRecord),
                    zip(omegas.tolist(), errors.tolist())))
