"""Problem definition: coefficients, validation, the stacked-system builder,
and the package's JSON input and output.

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
``AugmentedCoeffs.at`` returns.  The cost's mean part (Qhat, Ghat, s1, s2) is
:func:`mean_weight` and :func:`mean_offset` alone, for every reader.

The coefficient contract lives here alone: :func:`validate` decides which
instances are admissible, and :func:`load_config` ends with it; every reader
of coefficients at the nodes of a grid goes through
:meth:`ModelParams.node_table`, where a constant broadcasts to any grid and a
sampled coefficient exists only on the master grid (equal T and steps).

Every input file (config, stored law, convexity shift) is parsed by
:func:`read_json` and read field by field by :func:`read_field`, so every
refusal names the file and the field; :func:`json_text` writes all JSON
text, every artifact through :func:`write_json`.  ``ode.is_int`` is the
integer rule of counts, sizes and seeds, ``ode.asymmetry`` the symmetry rule.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatchError, InvalidNError, NonFiniteError, ParseError,
                     SchemaError)
from .ode import TimeGrid, asymmetry, interp, is_int, matvec, symmetrize

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

# the coefficients that may be sampled per node, in COEFF_SPEC's order
TIME_VARYING = tuple(name for name, (_, tv_ok, _) in COEFF_SPEC.items() if tv_ok)

# The decentralized pipeline never forms Nn x Nn matrices; the brute-force
# oracle path refuses to materialize them past this size.
MAX_AUGMENTED_DIM = 64


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


def validate(params: ModelParams) -> list[str]:
    """Return every violated admissibility condition (empty list = admissible)."""
    report: list[str] = []
    for name, least in (("n", 1), ("m", 1), ("steps", 2)):
        value = getattr(params, name)
        if not (is_int(value) and value >= least):
            report.append(f"{name} must be an integer >= {least}, got {value!r}")
    if not (np.isfinite(params.T) and params.T > 0):
        report.append(f"T must be positive and finite, got {params.T}")
    if report:
        return report

    for name, (spec, tv_ok, must_sym) in COEFF_SPEC.items():
        arr = getattr(params, name)
        base = tuple(params.n if s == "n" else params.m for s in spec)
        if not (arr.shape == base or tv_ok and arr.shape == (params.steps + 1,) + base):
            report.append(
                f"{name}: expected shape {base} or {(params.steps + 1,) + base}, "
                f"got {arr.shape}"
            )
            continue
        if not np.all(np.isfinite(arr)):
            report.append(f"{name}: contains non-finite entries")
            continue
        if must_sym and (fault := asymmetry(arr)) is not None:
            report.append(f"{name}: {fault}")
    return report


# ---------------------------------------------------------------------------
# Stacked (augmented) system for the brute-force centralized oracle
# ---------------------------------------------------------------------------

def mean_weight(W: np.ndarray, Gamma: np.ndarray) -> np.ndarray:
    """(Gamma - I)'W(Gamma - I) over leading axes: the mean's weight when the
    cost's sum over agents splits into deviations and mean (Qhat, Ghat)."""
    Gm = Gamma - np.eye(Gamma.shape[-1])
    return Gm.swapaxes(-1, -2) @ W @ Gm


def mean_offset(W: np.ndarray, Gamma: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Gamma'W eta - W eta over leading axes: each agent's linear cost term
    in that split (s1, s2)."""
    Weta = matvec(W, eta)
    return matvec(Gamma.swapaxes(-1, -2), Weta) - Weta


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
    A, B, C, D, F, Ftilde, Q, R, Gamma, eta = (sample(name) for name in TIME_VARYING)
    G, GammaBar, etaBar = params.G, params.GammaBar, params.etaBar
    Qhat, Ghat = mean_weight(Q, Gamma), mean_weight(G, GammaBar)
    return AugmentedSystem(
        N=N, n=params.n, m=params.m, A=kron_eye(A, N) + kron_mean(F, N), B=kron_eye(B, N),
        C=kron_eye(C, N) + kron_mean(Ftilde, N), D=kron_eye(D, N),
        Q=symmetrize(kron_eye(Q, N) + kron_mean(Qhat - Q, N)), R=symmetrize(kron_eye(R, N)),
        G=symmetrize(kron_eye(G, N) + kron_mean(Ghat - G, N)),
        S1=np.tile(mean_offset(Q, Gamma, eta), N), S2=np.tile(mean_offset(G, GammaBar, etaBar), N))


def check_population_size(N):
    """Raise InvalidNError unless N is a positive integer."""
    if not (is_int(N) and N >= 1):
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

    ``at(t)`` assembles the system from the coefficients that ode.interp
    reads at t, a time or an array of times.  Qhat and S1 are products of
    coefficients, so between nodes this is not the interpolant of assembled
    node systems.  The oracle solver reads the coefficients directly; ``at``
    is read only by the tests' stacked reference sweep and perfbench's
    ``model.assemble`` replay.
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
        p = self.params
        dt = p.grid().dt
        return _assemble_augmented(p, self.N, lambda name: interp(getattr(p, name), dt, t)
                                   if p.is_time_varying(name) else getattr(p, name))


# ---------------------------------------------------------------------------
# JSON input and output
# ---------------------------------------------------------------------------

def read_json(path):
    """The JSON document in the file ``path``, read as UTF-8.  A file that
    cannot be read, is not UTF-8, is not JSON or nests too deeply to parse
    raises ParseError naming it, with the line and column of a syntax error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def read_field(path, doc, name: str | None, read):
    """``read(doc[name])``, or ``read(doc)`` when ``name`` is None, for the
    document ``doc`` of the file ``path``.  A top level that is not an object,
    a missing field, or a TypeError, ValueError, OverflowError or
    NonFiniteError of ``read`` raises SchemaError naming the file and field."""
    where = f"{path}: "
    if name is not None:
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}: top level must be an object")
        if name not in doc:
            raise SchemaError(f"{path}: missing required field {name!r}")
        doc, where = doc[name], f"{path}: field {name!r}: "
    try:
        return read(doc)
    except (TypeError, ValueError, OverflowError, NonFiniteError) as exc:
        raise SchemaError(where + str(exc)) from None


def integral(value) -> int:
    """A JSON number with no fractional part, as an int; a fraction, a
    boolean or any other value raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if is_int(value):
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def real(value) -> float:
    """A JSON number, as a float; a boolean, a string or any other value
    raises ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def samples(value) -> np.ndarray:
    """The samples of a sampled entry {"samples": [...]}, one per node on the
    leading axis, as a float array; any other value raises ValueError."""
    if not (isinstance(value, dict) and "samples" in value):
        raise ValueError("a sampled entry must be an object carrying 'samples'")
    return np.asarray(value["samples"], dtype=float)


def _parse_coeff(name: str, raw) -> np.ndarray:
    """A config entry: a nested list is constant, {"samples": ...} one sample
    per node on a leading axis.  Shapes are :func:`validate`'s; a symmetric
    one with square trailing axes is symmetrized, warning where a node breaks
    ``ode.asymmetry``'s rule, if finite (validate refuses it otherwise)."""
    spec, tv_ok, must_sym = COEFF_SPEC[name]
    rank = len(spec)
    if isinstance(raw, dict):
        if not tv_ok:
            raise ValueError("must be constant")
        arr, rank = samples(raw), rank + 1
    else:
        arr = np.asarray(raw, dtype=float)
    if arr.ndim != rank:
        raise ValueError(f"expected {rank} axes, got {arr.ndim}")
    if must_sym and arr.shape[-1] == arr.shape[-2] and np.isfinite(arr).all():
        if (fault := asymmetry(arr)) is not None:
            warnings.warn(f"{name} symmetrized on load ({fault})")
        arr = symmetrize(arr)
    return arr


def parse_config(path) -> ModelParams:
    """The instance a JSON config describes, not yet validated; a file that is
    not JSON raises ParseError, a missing or malformed field SchemaError, each
    naming the file."""
    doc = read_json(path)
    n, m, steps = (read_field(path, doc, key, integral) for key in ("n", "m", "steps"))
    T = read_field(path, doc, "T", real)
    coeffs = {name: read_field(path, doc, name, lambda raw: _parse_coeff(name, raw))
              for name in COEFF_SPEC}
    return ModelParams(n=n, m=m, T=T, steps=steps, **coeffs)


def load_config(path) -> ModelParams:
    """The admissible instance a JSON config describes: :func:`parse_config`
    followed by :func:`validate`, whose every violation SchemaError names."""
    params = parse_config(path)
    report = validate(params)
    if report:
        raise SchemaError(f"{path}: " + "; ".join(report))
    return params


def _array_template(shape: tuple, pad: str) -> str:
    """The indent-2 JSON text of a nested list of this shape, with a "%r"
    field per entry; ``pad`` is the indent of the line that opens it."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    inner = pad + "  "
    sep = ",\n" + inner
    return "[\n" + inner + sep.join([_array_template(shape[1:], inner)] * shape[0]) \
        + "\n" + pad + "]"


def _key_text(key) -> str:
    """A dict key as json writes it: a string, or an int, float, bool or None
    written as its JSON text inside quotes."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = json.dumps(key, allow_nan=False)
    return json.dumps(key)


def json_text(doc, pad: str = "") -> str:
    """``doc`` as json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    writes it at indent ``pad``, numpy values as their tolist(): the package's
    one JSON text writer, a NaN or infinity raising ValueError.  A float
    array is one %-format call: a float's repr is exactly json's float text."""
    inner = pad + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        return "{\n" + ",\n".join(inner + _key_text(k) + ": " + json_text(v, inner)
                                  for k, v in sorted(doc.items())) + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        return "[\n" + ",\n".join(inner + json_text(v, inner) for v in doc) \
            + "\n" + pad + "]"
    if isinstance(doc, np.ndarray) and doc.dtype.kind == "f":
        if not np.isfinite(doc).all():
            raise ValueError("Out of range float values are not JSON compliant")
        return _array_template(doc.shape, pad) % tuple(doc.ravel().tolist())
    if isinstance(doc, (np.ndarray, np.generic)):
        return json_text(doc.tolist(), pad)
    return json.dumps(doc, allow_nan=False)


def write_json(path, doc: dict):
    """Write ``doc`` to ``path`` (returned) as the bytes of json.dump(doc,
    indent=2, sort_keys=True, allow_nan=False) plus a newline, numpy values as
    their tolist(); a NaN or infinity raises ValueError before the file opens."""
    text = json_text(doc) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def save_config(params: ModelParams, path):
    """``params`` as a JSON config, through :func:`write_json`; a sampled
    coefficient is written as {"samples": ...}."""
    doc = {"n": params.n, "m": params.m, "T": params.T, "steps": params.steps}
    for name in COEFF_SPEC:
        arr = getattr(params, name)
        doc[name] = {"samples": arr} if params.is_time_varying(name) else arr
    write_json(path, doc)
