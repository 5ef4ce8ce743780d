"""Problem definition: coefficients, validation, the stacked-system builder,
and JSON config I/O.

An instance is the weakly coupled population model

    dx_i = (A x_i + B u_i + F xavg) dt + (C x_i + D u_i + Ftilde xavg) dW_i,
    J_i  = 1/2 E[ int ||x_i - Gamma xavg - eta||_Q^2 + ||u_i||_R^2 dt
                  + ||x_i(T) - GammaBar xavg(T) - etaBar||_G^2 ],

with xavg the population state-average and all agents started at xi0.  The
social objective is the sum of the J_i.

Coefficients A, B, C, D, F, Ftilde, Q, R, Gamma, eta may be time-varying,
stored as per-node samples on the master grid (piecewise linear in between);
G, GammaBar, etaBar, xi0 are constants.  The stacked nN-dimensional form of
the same problem is assembled here alone, at nodes by :func:`build_augmented`
and at any times by :class:`AugmentedCoeffs`, with its N noises as one
diffusion matrix pair.  No solve or simulation reads it: the oracle solves
its two exchangeable modes and the centralized simulator lays out per-agent
tables, so it stays as the tests' reference and as what
``AugmentedCoeffs.at`` returns.

The coefficient contract lives here alone: :func:`validate` decides which
instances are admissible, and :func:`load_config` ends with it; every reader
of coefficients at the nodes of a grid goes through
:meth:`ModelParams.node_table`, where a constant broadcasts to any grid and a
sampled coefficient exists only on the master grid (equal T and steps).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidNError, ParseError, SchemaError
from .ode import TimeGrid, interp, matvec, symmetrize

# name -> (shape in terms of (n, m), may be time-varying, must be symmetric)
COEFF_SPEC = {
    "A": (("n", "n"), True, False),
    "B": (("n", "m"), True, False),
    "C": (("n", "n"), True, False),
    "D": (("n", "m"), True, False),
    "F": (("n", "n"), True, False),
    "Ftilde": (("n", "n"), True, False),
    "Q": (("n", "n"), True, True),
    "R": (("m", "m"), True, True),
    "Gamma": (("n", "n"), True, False),
    "eta": (("n",), True, False),
    "G": (("n", "n"), False, True),
    "GammaBar": (("n", "n"), False, False),
    "etaBar": (("n",), False, False),
    "xi0": (("n",), False, False),
}

CONFIG_KEYS = ["n", "m", "T", "steps"] + list(COEFF_SPEC)
# the coefficients that may be sampled per node, in COEFF_SPEC's order
TIME_VARYING = tuple(name for name, (_, tv_ok, _) in COEFF_SPEC.items() if tv_ok)

SYM_REPAIR_TOL = 1e-8

# The decentralized pipeline never forms Nn x Nn matrices; the brute-force
# oracle path refuses to materialize them past this size.
MAX_AUGMENTED_DIM = 64


def _shape_of(spec, n: int, m: int):
    return tuple(n if s == "n" else m for s in spec)


@dataclass(eq=False)
class ModelParams:
    """All problem coefficients plus the master grid parameters."""

    n: int
    m: int
    T: float
    steps: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray
    Ftilde: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    G: np.ndarray
    Gamma: np.ndarray
    GammaBar: np.ndarray
    eta: np.ndarray
    etaBar: np.ndarray
    xi0: np.ndarray

    def __post_init__(self):
        for name in COEFF_SPEC:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    def grid(self) -> TimeGrid:
        return TimeGrid(self.T, self.steps)

    def is_time_varying(self, name: str) -> bool:
        return getattr(self, name).ndim == len(COEFF_SPEC[name][0]) + 1

    def node_table(self, name: str, grid: TimeGrid | None = None) -> np.ndarray:
        """Samples at every node of ``grid`` (the master grid by default),
        shape (grid.steps+1, *base).  A constant broadcasts to any grid; a
        sampled coefficient exists only on the master grid, and any other
        grid raises GridMismatchError."""
        arr = getattr(self, name)
        grid = self.grid() if grid is None else grid
        if not self.is_time_varying(name):
            return np.broadcast_to(arr, (grid.steps + 1,) + arr.shape)
        if grid != self.grid():
            raise GridMismatchError(
                f"{name} is sampled on {self.steps} steps, the law on {grid.steps} "
                f"(horizons {self.T:g} and {grid.T:g})")
        return arr

    def coeff_at(self, name: str, t: float) -> np.ndarray:
        arr = getattr(self, name)
        return interp(arr, self.T / self.steps, t) if self.is_time_varying(name) else arr

    def equals(self, other: "ModelParams") -> bool:
        if (self.n, self.m, self.T, self.steps) != (other.n, other.m, other.T, other.steps):
            return False
        return all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in COEFF_SPEC
        )


def validate(params: ModelParams) -> list[str]:
    """Return every violated admissibility condition (empty list = admissible)."""
    report: list[str] = []
    if not (isinstance(params.n, int) and params.n >= 1):
        report.append(f"n must be a positive integer, got {params.n!r}")
    if not (isinstance(params.m, int) and params.m >= 1):
        report.append(f"m must be a positive integer, got {params.m!r}")
    if not (np.isfinite(params.T) and params.T > 0):
        report.append(f"T must be positive and finite, got {params.T}")
    if not (isinstance(params.steps, int) and params.steps >= 2):
        report.append(f"steps must be an integer >= 2, got {params.steps!r}")
    if report:
        return report

    for name, (spec, tv_ok, must_sym) in COEFF_SPEC.items():
        arr = getattr(params, name)
        base = _shape_of(spec, params.n, params.m)
        if not (arr.shape == base or tv_ok and arr.shape == (params.steps + 1,) + base):
            report.append(
                f"{name}: expected shape {base} or {(params.steps + 1,) + base}, "
                f"got {arr.shape}"
            )
            continue
        if not np.all(np.isfinite(arr)):
            report.append(f"{name}: contains non-finite entries")
            continue
        if must_sym:
            tol = SYM_REPAIR_TOL * (1.0 + np.max(np.abs(arr)))
            asym = np.max(np.abs(arr - np.swapaxes(arr, -1, -2)))
            if asym > tol:
                report.append(f"{name}: asymmetry {asym:.3e} exceeds {tol:.3e}")
    return report


# ---------------------------------------------------------------------------
# Stacked (augmented) system for the brute-force centralized oracle
# ---------------------------------------------------------------------------

def kron_eye(X: np.ndarray, N: int) -> np.ndarray:
    """I (x) X, N diagonal blocks, over the leading axes of X."""
    return np.einsum("ij,...ab->...iajb", np.eye(N), X).reshape(
        X.shape[:-2] + (N * X.shape[-2], N * X.shape[-1]))


def kron_mean(X: np.ndarray, N: int) -> np.ndarray:
    """11' (x) X / N, N x N blocks, over the leading axes of X."""
    return np.tile(X / N, (1,) * (X.ndim - 2) + (N, N))


@dataclass
class AugmentedSystem:
    """The nN-dimensional stacked problem at one time (or at many, on the
    leading axes of the fields that vary in time).

    A = I(x)A + 11'(x)F/N; B = I(x)B; R = I(x)R; Q = I(x)Q + 11'(x)(Qhat - Q)/N
    with Qhat = (Gamma-I)'Q(Gamma-I), G the same with GammaBar;
    S1 = stack(Gamma'Q eta - Q eta); S2 = stack(GammaBar'G etaBar - G etaBar).
    C = I(x)C + 11'(x)Ftilde/N and D = I(x)D: noise i drives block row i of
    C x + D u only.
    """

    N: int
    n: int
    m: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray  # (..., Nn, Nn)
    D: np.ndarray  # (..., Nn, Nm)
    Q: np.ndarray
    R: np.ndarray
    G: np.ndarray
    S1: np.ndarray
    S2: np.ndarray


def _assemble_augmented(params: ModelParams, N: int, sample) -> AugmentedSystem:
    """The stacked system with each time-varying coefficient taken from
    ``sample(name)`` (any leading time axes carried) and the constant ones
    from params."""
    n = params.n
    A, B, C, D, F, Ftilde, Q, R, Gamma, eta = (sample(name) for name in TIME_VARYING)
    G, GammaBar, etaBar = params.G, params.GammaBar, params.etaBar
    Gm, Gbm = Gamma - np.eye(n), GammaBar - np.eye(n)
    Qhat = Gm.swapaxes(-1, -2) @ Q @ Gm
    Ghat = Gbm.T @ G @ Gbm
    # linear cost terms, fixed by expanding sum_i ||x_i - Gamma xavg - eta||_Q^2
    Qeta = matvec(Q, eta)
    S1 = np.tile(matvec(Gamma.swapaxes(-1, -2), Qeta) - Qeta, N)
    S2 = np.tile(GammaBar.T @ (G @ etaBar) - G @ etaBar, N)
    return AugmentedSystem(
        N=N, n=n, m=params.m, A=kron_eye(A, N) + kron_mean(F, N), B=kron_eye(B, N),
        C=kron_eye(C, N) + kron_mean(Ftilde, N), D=kron_eye(D, N),
        Q=symmetrize(kron_eye(Q, N) + kron_mean(Qhat - Q, N)), R=symmetrize(kron_eye(R, N)),
        G=symmetrize(kron_eye(G, N) + kron_mean(Ghat - G, N)), S1=S1, S2=S2)


def check_population_size(N):
    """Raise InvalidNError unless N is a positive integer."""
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise InvalidNError(f"population size must be a positive integer, got {N!r}")


def _check_population(params: ModelParams, N: int):
    check_population_size(N)
    if N * params.n > MAX_AUGMENTED_DIM:
        raise InvalidNError(
            f"refusing to materialize an {N * params.n}-dimensional stacked system "
            f"(limit {MAX_AUGMENTED_DIM}); the decentralized pipeline never needs it"
        )


def build_augmented(params: ModelParams, N: int, node: int | TimeGrid = 0) -> AugmentedSystem:
    """Stacked system at a node of the master grid; a TimeGrid gives every node
    of that grid, on a leading axis of the fields that sampled coefficients
    enter, read by :meth:`ModelParams.node_table`'s rule."""
    _check_population(params, N)
    grid, at = (node, slice(None)) if isinstance(node, TimeGrid) else (None, node)
    return _assemble_augmented(params, N, lambda name: params.node_table(name, grid)[at]
                               if params.is_time_varying(name) else getattr(params, name))


class AugmentedCoeffs:
    """Continuous-time view of the stacked system of N agents, refused past
    MAX_AUGMENTED_DIM; the oracle solver and the centralized simulator take
    it for its params and N.

    ``at(t)`` assembles the system from the coefficients interpolated at t,
    a time or an array of times.  Qhat and S1 are products of coefficients,
    so between nodes this is not the interpolant of assembled node systems.
    The oracle solver reads the coefficients directly; ``at`` is read only by
    the tests' stacked reference sweep and perfbench's ``model.assemble``
    replay.
    """

    def __init__(self, params: ModelParams, N: int):
        _check_population(params, N)
        self.params = params
        self.N = N
        self._cache = (None if any(params.is_time_varying(k) for k in TIME_VARYING)
                       else build_augmented(params, N, 0))

    def at(self, t) -> AugmentedSystem:
        if self._cache is not None:
            return self._cache
        return _assemble_augmented(self.params, self.N, lambda name: self.params.coeff_at(name, t))


# ---------------------------------------------------------------------------
# JSON config I/O
# ---------------------------------------------------------------------------

def _coeff_to_json(params: ModelParams, name: str):
    arr = getattr(params, name)
    if params.is_time_varying(name):
        return {"samples": arr.tolist()}
    return arr.tolist()


def save_config(params: ModelParams, path):
    doc = {"n": params.n, "m": params.m, "T": params.T, "steps": params.steps}
    for name in COEFF_SPEC:
        doc[name] = _coeff_to_json(params, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_coeff(name: str, raw) -> np.ndarray:
    """A JSON entry: a nested list is constant, {"samples": ...} one sample per
    node on a leading axis.  Shapes are :func:`validate`'s; a symmetric one with
    square trailing axes is symmetrized, warning past the repair tolerance."""
    spec, tv_ok, must_sym = COEFF_SPEC[name]
    rank = len(spec)
    if isinstance(raw, dict):
        if "samples" not in raw:
            raise SchemaError(f"field {name!r}: time-varying entry must carry 'samples'")
        if not tv_ok:
            raise SchemaError(f"field {name!r} must be constant")
        raw, rank = raw["samples"], rank + 1
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"field {name!r}: not an array of numbers: {exc}") from None
    if arr.ndim != rank:
        raise SchemaError(f"field {name!r}: expected {rank} axes, got {arr.ndim}")
    if must_sym and arr.shape[-1] == arr.shape[-2]:
        asym = np.max(np.abs(arr - np.swapaxes(arr, -1, -2)))
        if asym > SYM_REPAIR_TOL * (1.0 + np.max(np.abs(arr))):
            warnings.warn(f"{name} symmetrized on load (asymmetry {asym:.3e})")
        arr = 0.5 * (arr + np.swapaxes(arr, -1, -2))
    return arr


def integral(value) -> int:
    """A JSON number with no fractional part, as an int; a fraction, a
    boolean or any other value raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"expected an integer, got {value!r}")


def real(value) -> float:
    """A JSON number, as a float; a boolean, a string or any other value
    raises ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def parse_config(path) -> ModelParams:
    """The instance a JSON config describes, not yet validated; a file that is
    not JSON raises ParseError, a missing or malformed field SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    for key in CONFIG_KEYS:
        if key not in doc:
            raise SchemaError(f"{path}: missing required field {key!r}")

    def scalar(key, read):
        try:
            return read(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: field {key!r}: {exc}") from None

    n, m, steps = (scalar(key, integral) for key in ("n", "m", "steps"))
    coeffs = {name: _parse_coeff(name, doc[name]) for name in COEFF_SPEC}
    return ModelParams(n=n, m=m, T=scalar("T", real), steps=steps, **coeffs)


def load_config(path) -> ModelParams:
    """The admissible instance a JSON config describes: :func:`parse_config`
    followed by :func:`validate`, whose every violation SchemaError names."""
    params = parse_config(path)
    report = validate(params)
    if report:
        raise SchemaError(f"{path}: " + "; ".join(report))
    return params
