"""Uniform time grids shared by the kernel and macroscopic solvers."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n*dt, n = 0..n_steps, covering [0, t_end].

    dt is adjusted to t_end / n_steps with n_steps = round(t_end / dt),
    so the final node lands on t_end exactly.
    """

    t_end: float
    dt: float

    def __post_init__(self):
        if self.t_end <= 0 or self.dt <= 0:
            raise ConfigInvalid("time grid requires t_end > 0 and dt > 0")

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_end / self.dt)))

    @property
    def step(self) -> float:
        return self.t_end / self.n_steps

    @property
    def times(self) -> np.ndarray:
        n = self.n_steps
        return np.linspace(0.0, self.t_end, n + 1)
