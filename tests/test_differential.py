"""Differential tests of the library against the independent reference
(``reference_law``) on the first 20 instances of the random scan
(``conftest.scanned_instance``, 200 steps).

Each solve is held to the reference at every node within twice the
library's own step-doubling difference, its values at 200 steps against
those at 400, plus a floor of 1e-12 (1 + max|value|) for instances whose
difference is at rounding level.  At order 4 the error is about 16/15 of
that difference and at order 2 about 4/3: measured 1.06 to 1.10 for P, the
oracle's modes at N = 1, 2, 8 and Pi at N = infinity, and 1.33 for the
limit oracle's phi and affine, which are second order.  A solve the library
refuses must be refused at 400 steps too, or the reference must fail.
"""

from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from mflqg.consistency import solve_cc
from mflqg.errors import NonFiniteError, RegularityLostError
from mflqg.model import AugmentedCoeffs
from mflqg.riccati import solve_oracle, solve_P

import reference_law
from conftest import scanned_instance

SCAN = range(20)
# P, the oracle at N = 1, 2 and 8, and the oracle at N = infinity (the limit law)
SOLVES = ("P", 1, 2, 8, np.inf)
REFUSED = (RegularityLostError, NonFiniteError)


def library(p, solve) -> dict:
    """The solve's node tables that the reference also gives, by name: P_mean
    alone at N = 1, which has no deviation mode."""
    if solve == "P":
        return {"P": solve_P(p)[0].values}
    if solve == np.inf:
        law = solve_oracle(SimpleNamespace(params=p, N=np.inf), validate=False)
        return {"Pi": law.P_mean.values, "phi": law.phi.values, "affine": law.affine.values}
    law = solve_oracle(AugmentedCoeffs(p, solve), validate=False)
    return {"P_mean": law.P_mean.values, **({"P_dev": law.P_dev.values} if solve > 1 else {})}


@lru_cache(maxsize=None)
def reference(index: int, solve) -> dict:
    """reference_law's tables of the same names at the instance's nodes, and
    theta_inf at N = infinity."""
    p = scanned_instance(index)
    nodes = p.grid().nodes
    if solve == "P":
        return {"P": reference_law.riccati_P(p.A, p.B, p.C, p.D, p.Q, p.R, p.G, p.T, nodes)}
    if solve == np.inf:
        Pi, theta, phi, affine = reference_law.limit_law(
            p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R, p.G, p.Gamma, p.GammaBar, p.eta,
            p.etaBar, p.xi0, p.T, nodes)
        return {"Pi": Pi, "theta": theta, "phi": phi, "affine": affine}
    dev, mean = reference_law.oracle_modes(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R, p.G,
                                           p.Gamma, p.GammaBar, solve, p.T, nodes)
    return {"P_mean": mean, "P_dev": dev}


def within_doubling(got, fine, want) -> bool:
    """|got - want| within twice |got - fine| (fine on twice the steps, read
    at got's nodes) plus the rounding floor, at every node."""
    bound = 2.0 * np.abs(got - fine[::2]).max() + 1e-12 * (1.0 + np.abs(got).max())
    return np.abs(got - want).max() <= bound


@pytest.mark.parametrize("index", SCAN)
@pytest.mark.parametrize("solve", SOLVES, ids=["P", "N1", "N2", "N8", "Ninf"])
def test_library_matches_the_reference_or_refuses_at_a_finer_grid(solve, index):
    # 12 of the 20 instances accept P and 8 refuse it; instance 8 accepts P
    # and refuses the oracle at N = 1.  On instance 7, R + D'GD = -7.81 at
    # t = T, so the library refuses it at node 0 at every step count while
    # the reference, which judges no regularity, completes
    p = scanned_instance(index)
    fine = replace(p, steps=2 * p.steps)
    try:
        got = library(p, solve)
    except REFUSED:
        try:
            library(fine, solve)
        except REFUSED:
            return
        with pytest.raises(AssertionError):    # reference_law asserts its success
            reference(index, solve)
        return
    fine_tables, want = library(fine, solve), reference(index, solve)
    for name, table in got.items():
        assert within_doubling(table, fine_tables[name], want[name]), name


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the consistency condition's E Z term is off (ROADMAP item 1): "
                          "Theta2 misses theta_inf by 3.6e-4 to 22 relative on the scan")
def test_theta2_matches_the_limit_law_on_every_accepted_instance():
    missed = []
    for index in SCAN:
        p = scanned_instance(index)
        try:
            _, law = solve_cc(p)
        except REFUSED:
            continue
        _, fine = solve_cc(replace(p, steps=2 * p.steps))
        if not within_doubling(law.Theta2.values, fine.Theta2.values,
                               reference(index, np.inf)["theta"]):
            missed.append(index)
    assert missed == []


def test_a_stalled_reference_solve_fails_at_its_call_cap(monkeypatch):
    # on instance 19 the library blows up at node 197 of the oracle's sweep
    # at N = 1, and the reference's DOP853 stalls near t = 2.5356 (past 10^6
    # right-hand-side calls, 49 s, uncapped).  It must stop at
    # MAX_RHS_CALLS and fail its assertion; the counter on its right-hand
    # side, which reads the state through _sym once per call, turns a hang
    # into a failure of this test at twice the cap
    calls = 0
    sym = reference_law._sym

    def counted(P):
        nonlocal calls
        calls += 1
        if calls > 2 * reference_law.MAX_RHS_CALLS:
            raise RuntimeError(f"the reference was still stepping after {calls} calls")
        return sym(P)

    monkeypatch.setattr(reference_law, "_sym", counted)
    p = scanned_instance(19)
    with pytest.raises(AssertionError, match=r"after 1000\d\d right-hand-side calls: stopped$"):
        reference_law.oracle_modes(p.A, p.B, p.C, p.D, p.F, p.Ftilde, p.Q, p.R, p.G, p.Gamma,
                                   p.GammaBar, 1, p.T, p.grid().nodes)
