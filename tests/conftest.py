import numpy as np
import pytest

from mflqg.model import ModelParams


def rand_psd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T) / n


def rand_params(rng, n=1, m=1, T=1.0, steps=200, scale=0.4, coupled=True,
                psd_weights=True, r_floor=0.5, terminal=True):
    """Random admissible instance; psd_weights makes it uniformly convex."""
    def mat(rows, cols):
        return scale * rng.standard_normal((rows, cols))

    Q = rand_psd(rng, n) if psd_weights else scale * _sym(rng, n)
    G = (rand_psd(rng, n, 0.5) if psd_weights else scale * _sym(rng, n)) if terminal else np.zeros((n, n))
    R = rand_psd(rng, m, 0.5) + r_floor * np.eye(m)
    return ModelParams(
        n=n, m=m, T=T, steps=steps,
        A=mat(n, n), B=mat(n, m), C=mat(n, n), D=mat(n, m),
        F=mat(n, n) if coupled else np.zeros((n, n)),
        Ftilde=mat(n, n) if coupled else np.zeros((n, n)),
        Q=Q, R=R, G=G,
        Gamma=mat(n, n), GammaBar=mat(n, n) if terminal else np.zeros((n, n)),
        eta=scale * rng.standard_normal(n),
        etaBar=scale * rng.standard_normal(n) if terminal else np.zeros(n),
        xi0=rng.standard_normal(n),
    )


def scanned_instance(index, m=None):
    """Instance ``index`` of a scan of random instances at 200 steps.  The
    scan draws from one np.random.default_rng(5), per instance in this order:
    n and m, each by rng.integers(1, 3) (with m given, n alone, by
    rng.integers(1, 4)), then rand_params' scale in [0.5, 2), semidefinite
    weights with probability 1/2 and T in [0.5, 3)."""
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        n = int(rng.integers(1, 3 if m is None else 4))
        mi = int(rng.integers(1, 3)) if m is None else m
        p = rand_params(rng, n=n, m=mi, steps=200, scale=rng.uniform(0.5, 2.0),
                        psd_weights=rng.random() < 0.5, T=rng.uniform(0.5, 3.0))
    return p


def _sym(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
