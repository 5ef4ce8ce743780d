"""Fixed reference computations that measure how fast the host runs right now.

The hosts this benchmark runs on drift in speed by up to 2x over tens of
seconds, and not every kind of work slows down alike.  So each workload has a
kernel that does the kind of work its operations spend their time on.  The
worker times it between operations, and the gated ``round_norm_s`` rescales
each operation's time by the kernel time around it:

- ``rk4``, for synth-repro: a Python loop of RK4 steps on a 2x2 Riccati
  equation with small numpy operations, as in the library's Riccati,
  consistency and Lyapunov sweeps.
- ``em``, for gap-scalar: Euler-Maruyama steps over a 1024-path, 8-agent
  noise bank drawn up front, as in the oracle's stationarity validation.

``setup_s`` is rescaled by ``rk4`` on every workload, since set-up is imports
and RK4 solves.

Do not edit the kernels or their nominal times: they define the unit of the
rescaled metrics, and a change to them changes every later measurement.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.array([[0.1, 0.3], [-0.2, 0.05]])
_Q = np.eye(2)


def rk4_kernel() -> np.ndarray:
    """1500 backward RK4 steps of P' = -(A'P + PA - PP + Q) from P = I."""
    def rhs(P):
        return -(_A.T @ P + P @ _A - P @ P + _Q)

    P, h = np.eye(2), -1e-3
    for _ in range(1500):
        k1 = rhs(P)
        k2 = rhs(P + 0.5 * h * k1)
        k3 = rhs(P + 0.5 * h * k2)
        k4 = rhs(P + h * k3)
        P = P + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return P


def em_kernel() -> np.ndarray:
    """200 Euler-Maruyama steps of 1024 paths of 8 mean-coupled agents; the path costs."""
    noise = np.random.default_rng(1).standard_normal((200, 1024, 8))
    x, cost = np.zeros((1024, 8)), np.zeros(1024)
    for dw in noise:
        x = x + 1e-3 * (0.5 * x + 0.2 * x.mean(axis=1, keepdims=True)) + 0.03 * dw
        cost += (x * x).sum(axis=1)
    return cost


# name -> (kernel, its time in seconds on a 2-vCPU Xeon VM at 2.0 GHz)
KERNELS = {"rk4": (rk4_kernel, 0.055), "em": (em_kernel, 0.05)}


def time_kernel(name: str) -> float:
    kernel, _ = KERNELS[name]
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t


def nominal(name: str) -> float:
    return KERNELS[name][1]
