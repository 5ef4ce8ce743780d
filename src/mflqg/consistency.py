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
system are its diagonal sub-blocks.  K's Riccati equation is solved as the
linear-fractional image V U^-1 of linear sweeps (Radon's lemma), on K's
2n live columns: one pair for its fluctuation block K22 on the half-step
grid, one for the live columns, re-anchored at U = I after every chunk of
ode.linear_chunk steps.  kappa, the condition-37 transition matrix, the mean
path X1 and the closed-form K of the reduced case are ode.integrate_linear
sweeps.  Every sweep samples the blocks it needs for a chunk of steps at
once; the node-wise read-off of the mean fields is batched over all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MFLQGError, NearSingularError, NotReducedCaseError
from .model import ModelParams
from .ode import (
    TimeGrid,
    Trajectory,
    check_nodes,
    integrate_linear,
    interp,
    linear_chunk,
    matvec,
    stage_samples,
    sweep_chunks,
)
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


# order of the 6n blocks in CCMatrices.tilde; the b blocks sit at odd
# indices, so a1/a1p and b1/b1p/b2 are strided views of the stack
A1, B1, A1P, B1P, A2, B2, C2, C2BAR = range(8)


@dataclass
class CCMatrices:
    """Node-sampled blocks of the consistency-condition system.

    ``tilde`` (nodes, 8, 6n, 6n) stacks the 6n blocks of the stacked
    (mean, fluctuation) FBSDE in the order A1 .. C2BAR above, so a sweep
    reads each block it needs as a view, once per chunk.  Each block
    is 2 x 2 in 3n blocks of the mean-field FBSDE, and those of the mean
    system are diagonal ones: the lower-right 3n blocks of A1, B1, A1P, B1P,
    A2, B2 and C2 are a1, b1, a1p, b1p, a2, b2 and c2; the upper-left ones of
    A1, B1, A2 and B2 are a1 + a1bar, b1, a2 + a2bar and b2 + b2bar.
    K_terminal = diag(Gbar + Gbar', Gbar) is K's terminal data.  f_t
    (nodes, 3n) and kappa_terminal (3n) are the forcing and terminal data of
    kappa's mean half, the only live one (:func:`solve_kappa`), and xi_bar is
    the initial mean state (xi0, 0, 0).
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
    kappa_terminal = np.concatenate([GbtGeb - Geb, -Geb, GbtGeb])
    xi_bar = np.concatenate([params.xi0, np.zeros(2 * n)])
    return CCMatrices(grid=grid, n=n, tilde=tilde, f_t=f_vec, K_terminal=K_terminal,
                      kappa_terminal=kappa_terminal, xi_bar=xi_bar)


class KTrajectory(Trajectory):
    """K at every node, with the smallest det U of its Moebius pair at a node
    (``det_u_min``) and that node (``det_u_node``)."""

    def __init__(self, grid: TimeGrid, values: np.ndarray, det_u_min: float,
                 det_u_node: int):
        super().__init__(grid, values, check=False)
        self.det_u_min = det_u_min
        self.det_u_node = det_u_node


def _image(U: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V U^-1 and det U at each node of a chunk.  From the first node whose
    det U is not positive on (U passed through a singular matrix: K has a
    pole before it) the image is left NaN."""
    with np.errstate(all="ignore"):
        det = np.linalg.det(U)
    ok = det > 0.0
    m = U.shape[0] if ok.all() else int(np.argmin(ok))
    X = np.full(V.shape, np.nan)
    X[:m] = V[:m] @ np.linalg.inv(U[:m])
    return X, det


def solve_K(cc: CCMatrices) -> KTrajectory:
    """Backward solve of the non-symmetric decoupling Riccati equation

    dK/dt = A2t + B2t K - K (A1t + B1t K) + (C2t + C2bart) K (A1pt + B1pt K),
    K(T) = K_terminal,

    as linear sweeps.  A Riccati equation dK/dt = M21 + M22 K - K (M11 +
    M12 K) is the image K = V U^-1 of the linear pair d[U; V]/dt = M [U; V]
    (Radon's lemma), and ``build_cc``'s layout reduces K's equation to two
    such pairs:

    * A1t, B1t, A1pt, B1pt and K_terminal vanish outside the x-columns 0:n
      and 3n:4n, so K's other 4n columns stay 0 and only Kx = K[:, x] is
      solved for (x = the live columns).
    * C2t + C2bart vanishes in its first 3n columns and K in its lower-left
      3n block, so the C-term reads only K22 = K[3n:, 3n:4n], whose own
      equation (the lower 3n rows) has no C-term.  With W = (C2t + C2bart)
      K, Kx solves the Riccati equation of the blocks M11 = A1t[x, x], M12 =
      B1t[x], M21 = A2t[:, x] + W A1pt[:, x] and M22 = B2t + W B1pt.

    K22's pair (U n x n) runs on the half-step grid, so W is known at each
    step's midpoint to fourth order; Kx's pair (U 2n x 2n) follows it chunk
    by chunk.  Both are ``ode.linear_chunk`` sweeps of the chunks of
    ``ode.sweep_chunks`` that restart at U = I, V = K after every chunk, with
    the blocks sampled per chunk through views of ``tilde``.  So K depends on
    the chunk size, at rounding level only.  Kx's U stays block upper
    triangular, and Kx is read off by block back-substitution, so K's
    lower-left block stays exactly 0.

    Blow-up raises NonFiniteError naming the first node in backward time
    where Kx is NaN, Inf or past BLOWUP_NORM.  det U changes sign at a pole
    of K, which node norms can miss, so a pair's image is NaN from the first
    node whose det U is not positive (K22's reaches Kx through W).  The
    equation is not symmetric and need not be solvable on all of [0, T].
    """
    grid, n = cc.grid, cc.n
    n3 = 3 * n
    dt, steps = grid.dt, grid.steps
    x = np.r_[0:n, n3:n3 + n]
    n4 = n3 + n         # the x-columns and x-rows lie in the first 4n
    fx, fl = slice(n3, n4), slice(n3, None)    # the fluctuation x-column and rows
    tl = cc.tilde
    out = np.zeros((steps + 1, 2 * n3, 2 * n3))
    out[steps] = cc.K_terminal
    Kx = cc.K_terminal[:, x]
    K22 = Kx[n3:, n:]
    det_min, det_node = 1.0, steps
    h, chunks = sweep_chunks(grid, "backward")
    for ks, ts in chunks:
        # the half-step grid's distinct stage times: ts, and the quarter points
        tq = np.empty(2 * ts.size - 1)
        tq[0::2], tq[1::2] = ts, ts[:-1] + 0.25 * h
        a1, b1, a2, b2 = (interp(view, dt, tq) for view in (
            tl[:, A1, fx, fx], tl[:, B1, fx, fl], tl[:, A2, fl, fx], tl[:, B2, fl, fl]))
        Y = linear_chunk(np.block([[a1, b1], [a2, b2]]), np.vstack([np.eye(n), K22]), 0.5 * h)
        K22h, _ = _image(Y[:, :n], Y[:, n:])
        # K22 at every stage time of ts, and W = (C2t + C2bart) K there
        K22s = np.concatenate([K22[None], K22h])
        a1, b1, a2, b2 = (stage_samples(view, ts) for view in (
            tl[:, A1, :n4, :n4], tl[:, B1, :n4], tl[:, A2, :, :n4], tl[:, B2]))
        a1p, b1p = (stage_samples(tl[:, b, fx], ts) for b in (A1P, B1P))
        W = (stage_samples(tl[:, C2, :, fl], ts) + stage_samples(tl[:, C2BAR, :, fl], ts)) @ K22s
        M = np.block([[a1[:, x][..., x], b1[:, x]],
                      [a2[..., x] + W @ a1p[..., x], b2 + W @ b1p]])
        Y = linear_chunk(M, np.vstack([np.eye(2 * n), Kx]), h)
        U, V = Y[:, :2 * n], Y[:, 2 * n:]
        # U[n:, :n] stays 0: Kx1 U11 = V1, Kx1 U12 + Kx2 U22 = V2
        Kx1, det1 = _image(U[:, :n, :n], V[..., :n])
        Kx2, det2 = _image(U[:, n:, n:], V[..., n:] - Kx1 @ U[:, :n, n:])
        Kxs = np.concatenate([Kx1, Kx2], axis=2)
        out[ks[-1] - 1:ks[0]][..., x] = Kxs[::-1]
        check_nodes(out, ks - 1)
        det = det1 * det2
        i = int(np.argmin(det))
        if det[i] < det_min:
            det_min, det_node = float(det[i]), int(ks[i] - 1)
        Kx, K22 = Kxs[-1], K22h[-1]
    return KTrajectory(grid, out, det_min, det_node)


def solve_kappa(cc: CCMatrices, K: Trajectory) -> Trajectory:
    """Backward affine companion of K, on its mean half:

    dkappa/dt = [B2t + (C2t + C2bart) K B1pt - K B1t] kappa + (f_t, 0),
    kappa(T) = (kappa_terminal, 0).

    With K's lower-left 3n block 0, ``build_cc``'s layout leaves the
    bracket's lower-left block 0 too, so the fluctuation half of kappa stays
    exactly 0 and is not stored.  The mean half runs on the upper-left
    block, (b2 + b2bar) + (c2 + c2bar) K22 b1p - K11 b1, whose 3n blocks are
    read as sub-blocks of ``tilde``.
    """
    n3 = 3 * cc.n
    tl, Kv = cc.tilde, K.values
    views = (Kv[:, :n3, :n3], Kv[:, n3:, n3:], tl[:, B2, :n3, :n3],
             tl[:, C2BAR, :n3, n3:], tl[:, B1P, n3:, :n3], tl[:, B1, :n3, :n3])

    def coeffs(ts):
        K11, K22, b2, c2, b1p, b1 = (stage_samples(view, ts) for view in views)
        return b2 + c2 @ (K22 @ b1p) - K11 @ b1, stage_samples(cc.f_t, ts)

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
    n3 = 3 * cc.n
    Gb = cc.K_terminal[n3:, n3:]
    fluct = cc.tilde[:, :, n3:, n3:]

    def coeffs(ts):
        a1, b1, a2, b2 = (stage_samples(fluct[:, b], ts) for b in (A1, B1, A2, B2))
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
        a1t, b1t, a2t, b2t = (stage_samples(cc.tilde[:, b], ts) for b in (A1, B1, A2, B2))
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
    kappa: Trajectory       # (3n,) mean half; the fluctuation half is 0
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

    dX1/dt = (A1 + A1bar) X1 + B1 Y1 with Y1 = K11 X1 + kappa, X1(0) =
    (xi0, 0, 0).  The state block is (x, 0, 0) so xhat is the first n
    entries of X1; the adjoint block is (phi, y1, y2); the diffusion block is
    (0, beta1, 0), read from EZ = K22 (A1pt[3n:, :3n] X1 + B1pt[3n:, :3n] Y1),
    the fluctuation rows of K (A1pt X + B1pt Y) with X = (X1, 0) and Y =
    (Y1, 0).  A1 + A1bar and B1 are the upper-left blocks of ``tilde``.
    """
    grid = cc.grid
    n = cc.n
    n3 = 3 * n
    mean = cc.tilde[:, :, :n3, :n3]

    def coeffs(ts):
        # dX1/dt = (A1 + A1bar + B1 K11) X1 + B1 kappa1
        a1a1bar, b1 = (stage_samples(mean[:, b], ts) for b in (A1, B1))
        K11 = stage_samples(K.values[:, :n3, :n3], ts)
        return a1a1bar + b1 @ K11, matvec(b1, stage_samples(kappa.values, ts))

    X1 = integrate_linear(coeffs, cc.xi_bar, grid, "forward")

    Kv, X = K.values, X1.values
    Y1 = matvec(Kv[:, :n3, :n3], X) + kappa.values
    # Z = K (A1pt X + B1pt Y) with Y = K X + kappa, on the fluctuation rows
    EZ = matvec(Kv[:, n3:, n3:], matvec(cc.tilde[:, A1P, n3:, :n3], X)
                + matvec(cc.tilde[:, B1P, n3:, :n3], Y1))

    xhat = Trajectory(grid, X1.values[:, :n])
    phi = Trajectory(grid, Y1[:, :n])
    y1hat = Trajectory(grid, Y1[:, n:2 * n])
    y2hat = Trajectory(grid, Y1[:, 2 * n:])
    beta1hat = Trajectory(grid, EZ[:, n:2 * n])

    diagnostics = {
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
    (both routes must agree); the max deviation lands in the diagnostics,
    with max|K| and the smallest det U of K's Moebius sweep and its node.
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
        "k_max_abs": float(np.max(np.abs(K.values))),
        "k_det_u_min": K.det_u_min,
        "k_det_u_min_node": K.det_u_node,
        "regularity_margin": margin,
        "phi_cross_max_err": cross,
    })
    law = FeedbackLaw(grid=P.grid, P=P, phi=sol.phi, Theta1=Th1, Theta2=Th2,
                      regularity_margin=margin)
    return sol, law
