"""Consistency-condition system: block assembly, Riccati decoupling, and
mean-field extraction.

The limiting single-agent system couples a forward state with three backward
adjoints.  Stacking the forward part as X = (x, 0, 0) and the backward part
as Y = (phi, y1, y2) (with diffusion carried only by y1) turns it into one
linear mean-field FBSDE; splitting into mean and fluctuation and stacking
those gives a 6n-dimensional FBSDE that the ansatz Y = K X + kappa decouples
into a non-symmetric matrix Riccati equation for K and a linear backward
equation for kappa.

Once (K, kappa) are known, the mean path is a plain forward ODE: the mean of
the fluctuation block vanishes (certified by the transition-matrix
determinant check), so EY = K (X1, 0) + kappa closes dX1/dt in deterministic
terms, and the mean fields xhat, y1hat, y2hat, beta1hat fall out of the block
bookkeeping.  The extraction is cross-validated by re-solving the affine
adjoint directly from the extracted mean fields and comparing: both routes
must produce the same phi.

Everything runs on the master grid of the model.  The blocks are assembled
on all nodes at once from the batched R + D'PD kernel of the riccati module,
and stored as one stack of the eight 6n blocks; the 3n blocks of the mean
system are its diagonal sub-blocks.  K is nonlinear and steps stagewise
through ode.integrate_rk4, interpolating the stack once per stage time and
forming its right-hand side with two stacked matrix products on strided
views of it.  Everything after K is linear: kappa, the condition-37
transition matrix, the mean path X1 and the closed-form K of the reduced
case are ode.integrate_linear sweeps, which sample the blocks they need for
a chunk of steps at once; the node-wise read-off of the mean fields is
batched over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MFLQGError, NearSingularError, NotReducedCaseError
from .model import ModelParams
from .ode import TimeGrid, Trajectory, integrate_linear, integrate_rk4, interp, matvec
from .riccati import (
    FeedbackLaw,
    gain_terms,
    node_solve,
    solve_P,
    solve_phi,
    theta1,
    theta2,
)

COND37_DET_TOL = 1e-8
REDUCED_SV_TOL = 1e-8
BLOCK_IDENTITY_TOL = 1e-10


# order of the 6n blocks in CCMatrices.tilde; the b blocks sit at odd
# indices, so a1/a1p and b1/b1p/b2 are strided views of the stack
A1, B1, A1P, B1P, A2, B2, C2, C2BAR = range(8)


@dataclass
class CCMatrices:
    """Node-sampled blocks of the consistency-condition system.

    ``tilde`` (nodes, 8, 6n, 6n) stacks the 6n blocks of the stacked
    (mean, fluctuation) FBSDE in the order A1 .. C2BAR above, so a sweep
    reads every block it needs with one interpolation per stage.  Each block
    is 2 x 2 in 3n blocks of the mean-field FBSDE, and those of the mean
    system are diagonal ones: the lower-right 3n blocks of A1, B1, A1P, B1P,
    A2, B2 and C2 are a1, b1, a1p, b1p, a2, b2 and c2; the upper-left ones of
    A1, B1, A2 and B2 are a1 + a1bar, b1, a2 + a2bar and b2 + b2bar.  f_t is
    the forcing of kappa, K_terminal = diag(Gbar + Gbar', Gbar) and
    kappa_terminal the terminal data of the decoupling pair, and xi_bar the
    initial mean state (xi0, 0, 0).
    """

    grid: TimeGrid
    n: int
    tilde: np.ndarray
    f_t: np.ndarray
    K_terminal: np.ndarray
    kappa_terminal: np.ndarray
    xi_bar: np.ndarray


def _place(out: np.ndarray, blocks: dict, size: int) -> np.ndarray:
    """Write each {(i, j): table} entry into the (i, j) size x size
    sub-block of the trailing two axes of out; returns out."""
    for (i, j), tab in blocks.items():
        out[..., i * size:(i + 1) * size, j * size:(j + 1) * size] = tab
    return out


def _T(X: np.ndarray) -> np.ndarray:
    return X.swapaxes(-1, -2)


def build_cc(params: ModelParams, P: Trajectory) -> CCMatrices:
    """Assemble every block of the consistency-condition system from P, on
    all nodes at once.

    The closed-loop pieces satisfy pi1 = A + B Theta1 and pi1p = C + D Theta1
    identically; both identities are asserted to 1e-10 as a bookkeeping guard.
    The 3n blocks of the mean-field FBSDE are temporaries, written from the
    n x n pieces and then into the preallocated ``tilde`` stack.
    """
    grid = P.grid
    n = params.n
    n3 = 3 * n
    nodes = grid.steps + 1
    eye = np.eye(n)
    A, B, C, D, Q, R, F, Ft, Gam, eta = (params.node_table(k) for k in (
        "A", "B", "C", "D", "Q", "R", "F", "Ftilde", "Gamma", "eta"))
    Pv = P.values

    S, BtP_DtPC = gain_terms(Pv, B, C, D, R)
    W = Pv @ B + _T(C) @ Pv @ D               # PB + C'PD
    Sinv_BtP = node_solve(S, BtP_DtPC)
    Sinv_Bt = node_solve(S, _T(B))
    Sinv_Dt = node_solve(S, _T(D))
    PFt = Pv @ Ft
    th1 = -Sinv_BtP
    pi1 = A - B @ Sinv_BtP
    pi2 = F - B @ (Sinv_Dt @ PFt)
    pi3 = -B @ Sinv_Bt
    pi1p = C - D @ Sinv_BtP
    pi2p = Ft - D @ (Sinv_Dt @ PFt)
    pi3p = -D @ Sinv_Bt
    qg = Q @ Gam                              # Q Gamma
    gqig = _T(Gam) @ Q @ (eye - Gam)          # Gamma'Q(I - Gamma)
    pi4 = W @ (Sinv_Dt @ PFt) - _T(C) @ PFt - Pv @ F + qg + gqig
    Qeta = matvec(Q, eta)
    GtQeta = matvec(_T(Gam), Qeta)
    f_vec = np.concatenate([Qeta - GtQeta, Qeta, -GtQeta], axis=1)

    # closed-loop identities, asserted as a guard on the block bookkeeping
    err = np.maximum(np.abs(pi1 - (A + B @ th1)).max(axis=(1, 2)),
                     np.abs(pi1p - (C + D @ th1)).max(axis=(1, 2)))
    bad = np.flatnonzero(err > BLOCK_IDENTITY_TOL * (1.0 + np.abs(pi1).max(axis=(1, 2))))
    if bad.size:
        raise MFLQGError(f"closed-loop block identity violated at node {bad[0]}")

    def block3(blocks: dict) -> np.ndarray:
        return _place(np.zeros((nodes, n3, n3)), blocks, n)

    FT, FtT, AT = _T(F), _T(Ft), _T(A)
    a1, b1, a1p, b1p = (block3({(0, 0): pi}) for pi in (pi1, pi3, pi1p, pi3p))
    a2 = block3({(1, 0): -Q})
    b2 = block3({(0, 0): -_T(pi1), (0, 2): -FT, (1, 1): -AT, (2, 2): -(AT + FT)})
    c2 = block3({(1, 1): -_T(C)})
    a1bar, a1pbar = block3({(0, 0): pi2}), block3({(0, 0): pi2p})
    a2bar = block3({(0, 0): pi4, (1, 0): qg, (2, 0): gqig})
    b2bar = block3({(0, 1): -FT, (2, 1): -FT})
    c2bar = block3({(0, 1): -FtT, (2, 1): -FtT})
    layout = {A1: {(0, 0): a1 + a1bar, (1, 1): a1},
              B1: {(0, 0): b1, (1, 1): b1},
              A1P: {(1, 0): a1p + a1pbar, (1, 1): a1p},
              B1P: {(1, 0): b1p, (1, 1): b1p},
              A2: {(0, 0): a2 + a2bar, (1, 1): a2},
              B2: {(0, 0): b2 + b2bar, (1, 1): b2},
              C2: {(1, 1): c2},
              C2BAR: {(0, 1): c2 + c2bar, (1, 1): -c2}}
    tilde = np.zeros((nodes, len(layout), 2 * n3, 2 * n3))
    for b, blocks in layout.items():
        _place(tilde[:, b], blocks, n3)

    # terminal data: Gbar has G in its (1, 0) n-block, Gbar' the GammaBar terms
    G, Gb, eb = params.G, params.GammaBar, params.etaBar
    GGb = G @ Gb
    GbtGIGb = Gb.T @ G @ (eye - Gb)
    K_terminal = _place(np.zeros((2 * n3, 2 * n3)), {
        (0, 0): -GGb - GbtGIGb, (1, 0): G - GGb, (2, 0): -GbtGIGb, (4, 3): G}, n)
    Geb = G @ eb
    GbtGeb = Gb.T @ Geb
    kappa_terminal = np.concatenate([GbtGeb - Geb, -Geb, GbtGeb, np.zeros(n3)])
    f_t = np.concatenate([f_vec, np.zeros_like(f_vec)], axis=1)
    xi_bar = np.concatenate([params.xi0, np.zeros(2 * n)])
    return CCMatrices(grid=grid, n=n, tilde=tilde, f_t=f_t, K_terminal=K_terminal,
                      kappa_terminal=kappa_terminal, xi_bar=xi_bar)


def solve_K(cc: CCMatrices) -> Trajectory:
    """Backward solve of the non-symmetric decoupling Riccati equation

    dK/dt = A2t + B2t K - K (A1t + B1t K) + (C2t + C2bart) K (A1pt + B1pt K),
    K(T) = K_terminal.

    A stage interpolates the ``tilde`` stack once per stage time (the two
    middle stages share the sample of the first) and forms the right-hand
    side with two stacked products: [B1t, B1pt, B2t] K, read as a strided
    view of the stack, and K [A1t + B1t K, A1pt + B1pt K].  Each matrix of a
    stacked product is the product the matrix form makes, so K is bit-equal
    to it.  Blow-up raises NonFiniteError: the equation is not symmetric and
    need not be solvable on all of [0, T].
    """
    dt = cc.grid.dt
    last = [None, None]     # the last stage time and the stack there

    def rhs(t, K):
        if t != last[0]:
            last[:] = t, interp(cc.tilde, dt, t)
        tl = last[1]
        bK = tl[B1:B2 + 1:2] @ K             # b1t K, b1pt K, b2t K
        KX = K @ (tl[A1:A1P + 1:2] + bK[:2])  # K (a1t + b1t K), K (a1pt + b1pt K)
        return tl[A2] + bK[2] - KX[0] + (tl[C2] + tl[C2BAR]) @ KX[1]

    return integrate_rk4(rhs, cc.K_terminal, cc.grid, "backward")


def _blocks(stack: np.ndarray, dt: float, ts: np.ndarray, *which: int) -> list:
    """The chosen blocks of ``tilde`` (or a view of its sub-blocks)
    interpolated at the times ts; only these blocks are read, and only for
    these times."""
    return [interp(stack[:, b], dt, ts) for b in which]


def solve_kappa(cc: CCMatrices, K: Trajectory) -> Trajectory:
    """Backward affine companion of K:

    dkappa/dt = [B2t + (C2t + C2bart) K B1pt - K B1t] kappa + f_t,
    kappa(T) = kappa_terminal.
    """
    dt = cc.grid.dt

    def coeffs(ts):
        Kt = K(ts)
        b1t, b1pt, b2t, c2t, c2bart = _blocks(cc.tilde, dt, ts, B1, B1P, B2, C2, C2BAR)
        bracket = b2t + (c2t + c2bart) @ (Kt @ b1pt) - Kt @ b1t
        return bracket, interp(cc.f_t, dt, ts)

    return integrate_linear(coeffs, cc.kappa_terminal, cc.grid, "backward")


def check_condition_37(cc: CCMatrices) -> dict:
    """Non-degeneracy certificate for the fluctuation-mean system.

    Integrates the 6n-dimensional transition matrix of

        [[A1, B1], [A2 - Gbar A1 + (B2 - Gbar B1) Gbar, B2 - Gbar B1]]

    forward over [0, T] and reports the determinant of its lower-right 3n x 3n
    block; the certificate holds when |det| > 1e-8.  Here A1, B1, A2, B2 are
    the 3n blocks a1, b1, a2, b2 of the mean-field FBSDE, read as the
    lower-right 3n blocks of ``tilde``, and Gbar is the lower-right 3n block
    of K_terminal.
    """
    dt = cc.grid.dt
    n3 = 3 * cc.n
    Gb = cc.K_terminal[n3:, n3:]
    fluct = cc.tilde[:, :, n3:, n3:]

    def coeffs(ts):
        a1, b1, a2, b2 = _blocks(fluct, dt, ts, A1, B1, A2, B2)
        b2g = b2 - Gb @ b1
        return np.block([[a1, b1], [a2 - Gb @ a1 + b2g @ Gb, b2g]]), None

    Phi = integrate_linear(coeffs, np.eye(2 * n3), cc.grid, "forward")
    block = Phi.terminal[n3:, n3:]
    det = float(np.linalg.det(block))
    return {"holds": bool(abs(det) > COND37_DET_TOL), "determinant": det}


def explicit_K_reduced(cc: CCMatrices) -> Trajectory:
    """Closed-form K for the reduced case (no state/average noise feedthrough
    into the adjoints: C = Ftilde = 0) with zero terminal data.

    K(t) = -[(0,I) Psi(T,t) (0,I)'ed]^{-1} (0,I) Psi(T,t) (I,0)'ed, with Psi the
    transition matrix of [[A1t, B1t], [A2t, B2t]].  The inverted block's
    smallest singular value is monitored at every node.
    """
    grid = cc.grid
    n6 = 6 * cc.n
    if np.max(np.abs(cc.tilde[:, C2] + cc.tilde[:, C2BAR])) > 0.0:
        raise NotReducedCaseError("closed-form K requires C = Ftilde = 0")
    if np.max(np.abs(cc.K_terminal)) > 0.0:
        raise NotReducedCaseError("closed-form K is anchored at zero terminal data (G = 0)")

    def coeffs(ts):
        a1t, b1t, a2t, b2t = _blocks(cc.tilde, grid.dt, ts, A1, B1, A2, B2)
        # d/dt Psi(T, t) = -Psi(T, t) M(t), Psi(T, T) = I; sweep the transpose
        return -_T(np.block([[a1t, b1t], [a2t, b2t]])), None

    Psi = _T(integrate_linear(coeffs, np.eye(2 * n6), grid, "backward").values)
    lower_right = Psi[:, n6:, n6:]
    sv = np.linalg.svd(lower_right, compute_uv=False)[:, -1]
    bad = np.flatnonzero(sv < REDUCED_SV_TOL)
    if bad.size:
        k = bad[0]
        raise NearSingularError(
            f"transition block nearly singular at node {k}: sigma_min = {sv[k]:.3e}")
    return Trajectory(grid, -np.linalg.solve(lower_right, Psi[:, n6:, :n6]))


@dataclass
class CCSolution:
    """Decoupling pair plus the extracted deterministic mean-field paths."""

    grid: TimeGrid
    K: Trajectory
    kappa: Trajectory
    X1: Trajectory          # (3n,) deterministic forward path
    xhat: Trajectory
    y1hat: Trajectory
    y2hat: Trajectory
    beta1hat: Trajectory
    phi: Trajectory         # first adjoint block of Y1
    diagnostics: dict = field(default_factory=dict)


def extract_mean_fields(cc: CCMatrices, K: Trajectory, kappa: Trajectory,
                        cond37: dict | None = None) -> CCSolution:
    """Close the deterministic mean system through Y = K X + kappa and read
    the mean fields off the block stacking.

    dX1/dt = (A1 + A1bar) X1 + B1 Y1 with Y1 = [K (X1, 0) + kappa]_{first 3n},
    X1(0) = (xi0, 0, 0).  The state block is (x, 0, 0) so xhat is the first n
    entries of X1; the adjoint block is (phi, y1, y2); the diffusion block is
    (0, beta1, 0), read from EZ = [K(A1pt + B1pt K)(X1, 0) + K B1pt kappa]
    restricted to the rows that feed the mean adjoint equation.  A1 + A1bar
    and B1 are the upper-left blocks of ``tilde``.
    """
    grid = cc.grid
    n = cc.n
    n3 = 3 * n
    mean = cc.tilde[:, :, :n3, :n3]

    def coeffs(ts):
        # dX1/dt = (A1 + A1bar + B1 K11) X1 + B1 kappa1
        a1a1bar, b1 = _blocks(mean, grid.dt, ts, A1, B1)
        K11 = interp(K.values[:, :n3, :n3], grid.dt, ts)
        kappa1 = interp(kappa.values[:, :n3], grid.dt, ts)
        return a1a1bar + b1 @ K11, matvec(b1, kappa1)

    X1 = integrate_linear(coeffs, cc.xi_bar, grid, "forward")

    Kv, kap = K.values, kappa.values
    Xt = np.concatenate([X1.values, np.zeros_like(X1.values)], axis=1)
    Yt = matvec(Kv, Xt) + kap
    Y1 = Yt[:, :n3]
    # consistency of the closure: the fluctuation-mean adjoint must vanish
    ey2_resid = float(np.max(np.abs(Yt[:, n3:])))
    # Z = K (A1pt X + B1pt Y) with Y = K X + kappa
    EZ = matvec(Kv[:, n3:], matvec(cc.tilde[:, A1P], Xt) + matvec(cc.tilde[:, B1P], Yt))

    xhat = Trajectory(grid, X1.values[:, :n])
    phi = Trajectory(grid, Y1[:, :n])
    y1hat = Trajectory(grid, Y1[:, n:2 * n])
    y2hat = Trajectory(grid, Y1[:, 2 * n:])
    beta1hat = Trajectory(grid, EZ[:, n:2 * n])

    diagnostics = {
        "ey2_max": ey2_resid,
        "k_terminal_err": float(np.max(np.abs(K.terminal - cc.K_terminal))),
        "kappa_terminal_err": float(np.max(np.abs(kappa.terminal - cc.kappa_terminal))),
    }
    if cond37 is not None:
        diagnostics["condition37"] = dict(cond37)
        if not cond37["holds"]:
            diagnostics["warnings"] = [
                "fluctuation-mean nondegeneracy certificate failed; EX2 = 0 not certified"
            ]
    return CCSolution(grid=grid, K=K, kappa=kappa, X1=X1, xhat=xhat, y1hat=y1hat,
                      y2hat=y2hat, beta1hat=beta1hat, phi=phi, diagnostics=diagnostics)


def solve_cc(params: ModelParams) -> tuple[CCSolution, FeedbackLaw]:
    """End-to-end decentralized synthesis.

    Pipeline: P Riccati -> block assembly -> K Riccati -> kappa -> determinant
    certificate -> mean-field extraction -> gains.  The law's affine adjoint
    is cross-checked by integrating it directly from the extracted mean fields
    (both routes must agree); the max deviation lands in the diagnostics.
    """
    stage = "solve_P"
    try:
        P, margin = solve_P(params)
        stage = "build_cc"
        cc = build_cc(params, P)
        stage = "solve_K"
        K = solve_K(cc)
        stage = "solve_kappa"
        kappa = solve_kappa(cc, K)
        stage = "check_condition_37"
        cond = check_condition_37(cc)
        stage = "extract_mean_fields"
        sol = extract_mean_fields(cc, K, kappa, cond)
        stage = "feedback_gains"
        Th1 = theta1(P, params)
        Th2 = theta2(P, sol.phi, sol.xhat, params)
        stage = "phi_cross_check"
        phi_direct = solve_phi(P, params, sol.xhat, sol.y1hat, sol.y2hat, sol.beta1hat)
        cross = float(np.max(np.abs(phi_direct.values - sol.phi.values)))
    except MFLQGError as exc:
        raise type(exc)(f"[stage {stage}] {exc}") from exc
    sol.diagnostics.update({
        "regularity_margin": margin,
        "phi_cross_max_err": cross,
        "xhat_initial_err": float(np.max(np.abs(sol.xhat.initial - params.xi0))),
    })
    law = FeedbackLaw(grid=P.grid, P=P, phi=sol.phi, Theta1=Th1, Theta2=Th2,
                      regularity_margin=margin)
    return sol, law
