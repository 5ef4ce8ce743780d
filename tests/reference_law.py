"""An independent reference for the auxiliary problem's Riccati equation and
its state-feedback gain, and for the oracle's two exchangeable modes.

It is written from the equations alone and imports numpy and scipy, never
``mflqg``, so an agreement with the package is not the package agreeing with
itself.  With constant coefficients,

    -P' = PA + A'P + C'PC + Q - (PB + C'PD) S^{-1} (B'P + D'PC),
    S = R + D'PD,  P(T) = G,

is integrated backward by scipy's adaptive DOP853 at rtol 1e-13 and atol
1e-15 and read at any times through its dense output, and the gain is
Theta1 = -S^{-1} (B'P + D'PC).  The solver steps the full n x n state, and
every right-hand side here reads each matrix state through its symmetric
part: an antisymmetric part would otherwise grow unchecked on some
instances (on one random instance it reached 17.5 and moved P by 0.41
relative), although the true solutions are symmetric.

The oracle's modes of N agents share the agent block P_d = P_dev +
(P_mean - P_dev)/N (P_mean at N = 1) and S = R + D'P_d D:

    -P_dev' = P_dev A + A'P_dev + C'P_d C + Q - N_dev' S^{-1} N_dev,
    N_dev = B'P_dev + D'P_d C,  P_dev(T) = G;
    -P_mean' = P_mean (A + F) + (A + F)'P_mean + (C + Ft)'P_d (C + Ft) + Qhat
               - N_mean' S^{-1} N_mean,
    N_mean = B'P_mean + D'P_d (C + Ft),  P_mean(T) = Ghat,

with Qhat = (Gamma - I)'Q(Gamma - I) and Ghat = (GammaBar - I)'G(GammaBar - I),
integrated together by the same DOP853 solve.

As N grows, P_d tends to P_dev = P, and the oracle tends to its limit law:
P as above, Pi the mean mode with every noise term read through P,
K_dev = Theta1, K_mean = -S^{-1} (B'Pi + D'P (C + Ft)), and the mean mode's
adjoint

    phi' = -(A + F + B K_mean)'phi - s1,  phi(T) = s2,
    s1 = Gamma'Q eta - Q eta,  s2 = GammaBar'G etaBar - G etaBar,

with affine = -S^{-1} B'phi.  P, Pi and phi are one backward DOP853 solve;
the population mean m' = (A + F + B K_mean) m + B affine, m(0) = xi0, is a
forward one reading it, and the limit law's affine gain is
theta_inf = (K_mean - K_dev) m + affine.

Every solve fails by an AssertionError naming its right-hand-side calls
when DOP853 fails or has spent MAX_RHS_CALLS of them, so a solve that
stalls near a pole cannot hang its caller.
"""

import numpy as np
from scipy.integrate import DOP853, OdeSolution

# successful solves on the first 20 scan instances take at most 2188 calls
# and DOP853's own failures stop by 8624; one stalled solve ran past 10^6
MAX_RHS_CALLS = 100_000


def _dense(rhs, y0, t0, t1):
    """The DOP853 solve of y' = rhs(t, y) from y(t0) = y0 to t1, as its dense
    output: a function of the times, one column per time.  It steps as
    scipy's solve_ivp does, and stops after MAX_RHS_CALLS calls of rhs."""
    solver = DOP853(rhs, float(t0), np.ravel(y0), float(t1), rtol=1e-13, atol=1e-15)
    ts, pieces = [solver.t], []
    while solver.status == "running" and solver.nfev < MAX_RHS_CALLS:
        message = solver.step()   # None unless the step failed
        if message is None:
            ts.append(solver.t)
            pieces.append(solver.dense_output())
    assert solver.status == "finished", (f"DOP853 at t = {solver.t:.6g} after {solver.nfev} "
                                         f"right-hand-side calls: {message or 'stopped'}")
    return OdeSolution(ts, pieces)


def _sym(P: np.ndarray) -> np.ndarray:
    """The symmetric part of P (of each matrix of a stack)."""
    return 0.5 * (P + P.swapaxes(-1, -2))


def _backward(rhs, terminal, T, times) -> np.ndarray:
    """The DOP853 solve of y' = rhs(t, y), y(T) = terminal, at each of ``times``."""
    terminal = np.asarray(terminal, dtype=float)
    sol = _dense(rhs, terminal, T, 0.0)
    return sol(np.asarray(times, dtype=float)).T.reshape((-1,) + terminal.shape)


def riccati_P(A, B, C, D, Q, R, G, T, times) -> np.ndarray:
    """P at each of ``times`` in [0, T], shape (len(times), n, n)."""
    n = A.shape[0]

    def rhs(t, y):
        P = _sym(y.reshape(n, n))
        S = R + D.T @ P @ D
        num = B.T @ P + D.T @ P @ C
        return -(P @ A + A.T @ P + C.T @ P @ C + Q - num.T @ np.linalg.solve(S, num)).ravel()

    return _backward(rhs, G, T, times)


def oracle_modes(A, B, C, D, F, Ft, Q, R, G, Gamma, GammaBar, N, T, times):
    """(P_dev, P_mean) of N agents at each of ``times`` in [0, T], each of
    shape (len(times), n, n).  At N = 1 the oracle has no deviation mode, and
    P_dev here is only a by-product of the joint solve."""
    n = A.shape[0]
    eye = np.eye(n)
    Qhat = (Gamma - eye).T @ Q @ (Gamma - eye)
    Ghat = (GammaBar - eye).T @ G @ (GammaBar - eye)
    Am, Cm = A + F, C + Ft

    def rhs(t, y):
        Pv, Pm = _sym(y.reshape(2, n, n))
        Pd = Pm if N == 1 else Pv + (Pm - Pv) / N
        S = R + D.T @ Pd @ D
        Nv = B.T @ Pv + D.T @ Pd @ C
        Nm = B.T @ Pm + D.T @ Pd @ Cm
        dev = Pv @ A + A.T @ Pv + C.T @ Pd @ C + Q - Nv.T @ np.linalg.solve(S, Nv)
        mean = Pm @ Am + Am.T @ Pm + Cm.T @ Pd @ Cm + Qhat - Nm.T @ np.linalg.solve(S, Nm)
        return -np.concatenate([dev.ravel(), mean.ravel()])

    modes = _backward(rhs, np.stack([G, Ghat]), T, times)
    return modes[:, 0], modes[:, 1]


def theta1(P, B, C, D, R) -> np.ndarray:
    """Theta1 = -(R + D'PD)^{-1} (B'P + D'PC) at each matrix of the stack P."""
    DtP = D.T @ P
    return -np.linalg.solve(R + DtP @ D, B.T @ P + DtP @ C)


def limit_law(A, B, C, D, F, Ft, Q, R, G, Gamma, GammaBar, eta, etaBar, xi0, T, times):
    """(Pi, theta_inf, phi, affine) of the N = infinity oracle at each of
    ``times`` in [0, T], of shapes (len(times), n, n), (len(times), m),
    (len(times), n) and (len(times), m)."""
    n = A.shape[0]
    eye = np.eye(n)
    Qhat = (Gamma - eye).T @ Q @ (Gamma - eye)
    Ghat = (GammaBar - eye).T @ G @ (GammaBar - eye)
    s1 = Gamma.T @ Q @ eta - Q @ eta
    s2 = GammaBar.T @ G @ etaBar - G @ etaBar
    Am, Cm = A + F, C + Ft

    def unpack(y):
        """P, Pi, phi off y, with the gains and the affine they give."""
        P, Pi = _sym(y[:2 * n * n].reshape(2, n, n))
        phi = y[2 * n * n:]
        S = R + D.T @ P @ D
        N_dev, N_mean = B.T @ P + D.T @ P @ C, B.T @ Pi + D.T @ P @ Cm
        K_dev, K_mean = -np.linalg.solve(S, N_dev), -np.linalg.solve(S, N_mean)
        return P, Pi, phi, N_dev, N_mean, K_dev, K_mean, -np.linalg.solve(S, B.T @ phi)

    def backward(t, y):
        P, Pi, phi, N_dev, N_mean, K_dev, K_mean, _ = unpack(y)
        # N'S^{-1}N = -N'K
        dev = P @ A + A.T @ P + C.T @ P @ C + Q + N_dev.T @ K_dev
        mean = Pi @ Am + Am.T @ Pi + Cm.T @ P @ Cm + Qhat + N_mean.T @ K_mean
        return -np.concatenate([dev.ravel(), mean.ravel(), (Am + B @ K_mean).T @ phi + s1])

    sol = _dense(backward, np.concatenate([G.ravel(), Ghat.ravel(), s2]), T, 0.0)

    def forward(t, m):
        *_, K_mean, affine = unpack(sol(t))
        return (Am + B @ K_mean) @ m + B @ affine

    mean = _dense(forward, xi0, 0.0, T)
    times = np.asarray(times, dtype=float)
    laws = [unpack(y) for y in sol(times).T]
    theta = [(K_mean - K_dev) @ m + affine
             for (*_, K_dev, K_mean, affine), m in zip(laws, mean(times).T)]
    return (np.array([law[1] for law in laws]), np.array(theta),
            np.array([law[2] for law in laws]), np.array([law[-1] for law in laws]))
