"""Fixed-step RK4 integrator for the vehicle dynamics, on plain NumPy arrays."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

Derivative = Callable[[np.ndarray], np.ndarray]


def rk4_step(state: np.ndarray, derivative: Derivative, dt: float) -> np.ndarray:
    """Advance ``state`` by one classical Runge-Kutta (RK4) step of size ``dt``."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    k1 = np.asarray(derivative(state), dtype=float)
    k2 = np.asarray(derivative(state + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(derivative(state + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(derivative(state + dt * k3), dtype=float)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
