"""Uniform grids and sampled functions shared by all modules."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np


def check_integer(name: str, value, low: int, high: int | None = None) -> None:
    """ValueError naming ``name`` unless value is a Python or numpy integer
    (not a bool) with low <= value, and value <= high when high is given."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low or (high is not None and value > high)):
        bounds = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"need an integer {name} {bounds}, got {name}={value!r}")


# np.linspace(lo, hi, count) is finite, and warns of nothing, when |lo| + |hi|
# is at most this: its step and each k * step + lo are then at most about that.
LATTICE_BOUND = sys.float_info.max / 2


def lattice(lo: float, hi: float, count, names: tuple[str, str, str]) -> np.ndarray:
    """np.linspace(lo, hi, count), checked before it runs.

    ValueError, naming the bounds and the count by ``names``, unless count
    is an integer >= 2 and lo and hi are finite with |lo| + |hi| <=
    LATTICE_BOUND.
    """
    lo_name, hi_name, count_name = names
    check_integer(count_name, count, 2)
    if not abs(lo) + abs(hi) <= LATTICE_BOUND:  # NaN fails too
        raise ValueError(f"{lo_name} and {hi_name} must be finite with |{lo_name}| + "
                         f"|{hi_name}| <= {LATTICE_BOUND:.6g}, got {lo!r} and {hi!r}")
    return np.linspace(lo, hi, count)


@dataclass(frozen=True)
class UniformGrid:
    """An interval [a, b] with n+1 equispaced nodes.

    The step h = (b - a)/n is always derived from the triple (a, b, n);
    it is never stored independently.
    """

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"interval ends must be finite: a={self.a}, b={self.b}")
        if not self.b > self.a:
            raise ValueError(f"interval end must exceed start: a={self.a}, b={self.b}")
        check_integer("n", self.n, 1)
        if not math.isfinite(self.h):
            raise ValueError(f"step (b - a)/n overflows: a={self.a}, b={self.b}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def nodes(self, index=None) -> np.ndarray:
        """a + h k for k = 0..n, or for the node indices k given, except that
        the last node is b where a + h n overflows."""
        a, h, n = float(self.a), float(self.h), self.n  # Python floats overflow quietly
        k = np.arange(n + 1) if index is None else np.asarray(index)
        if math.isfinite(a + h * n):
            return a + h * k
        return np.where(k < n, a + h * np.minimum(k, n - 1), self.b)


@dataclass(frozen=True)
class SampledFunction:
    """Complex values of a function on the nodes of a UniformGrid."""

    grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n + 1,):
            raise ValueError(
                f"expected {self.grid.n + 1} samples, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)
