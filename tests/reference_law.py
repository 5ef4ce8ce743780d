"""An independent reference for the auxiliary problem's Riccati equation and
its state-feedback gain.

It is written from the equations alone and imports numpy and scipy, never
``mflqg``, so an agreement with the package is not the package agreeing with
itself.  With constant coefficients,

    -P' = PA + A'P + C'PC + Q - (PB + C'PD) S^{-1} (B'P + D'PC),
    S = R + D'PD,  P(T) = G,

is integrated backward by scipy's adaptive DOP853 at rtol 1e-13 and atol
1e-15 and read at any times through its dense output, and the gain is
Theta1 = -S^{-1} (B'P + D'PC).
"""

import numpy as np
from scipy.integrate import solve_ivp


def riccati_P(A, B, C, D, Q, R, G, T, times) -> np.ndarray:
    """P at each of ``times`` in [0, T], shape (len(times), n, n)."""
    n = A.shape[0]

    def rhs(t, y):
        P = y.reshape(n, n)
        S = R + D.T @ P @ D
        num = B.T @ P + D.T @ P @ C
        return -(P @ A + A.T @ P + C.T @ P @ C + Q - num.T @ np.linalg.solve(S, num)).ravel()

    sol = solve_ivp(rhs, (T, 0.0), np.asarray(G, dtype=float).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15, dense_output=True)
    assert sol.success, sol.message
    return sol.sol(np.asarray(times, dtype=float)).T.reshape(-1, n, n)


def theta1(P, B, C, D, R) -> np.ndarray:
    """Theta1 = -(R + D'PD)^{-1} (B'P + D'PC) at each matrix of the stack P."""
    DtP = D.T @ P
    return -np.linalg.solve(R + DtP @ D, B.T @ P + DtP @ C)
