"""Acceptance suite: one test per criterion, at the stated scales.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Every tolerance is pinned here; the statistical checks
use the 3 * SE + deterministic-budget policy of the experiments module.
The suite is heavy (Monte Carlo at full scale) but bounded: each
criterion also asserts its wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

from spherelab.basis import DegreeTable, monomial_norm_closed_form
from spherelab.cutoffs import Cutoff, mean_value
from spherelab.ensemble import NodeEvaluator, RandomEnsemble
from spherelab.experiments import (ExperimentConfig, run_embed_check,
                                   run_equidistribution_cr,
                                   run_equidistribution_domain,
                                   run_expectation_cr, run_expectation_domain,
                                   run_kernel_diag, run_lp_boundary,
                                   run_lp_closed, run_variance_cr)
from spherelab.geometry import random_sphere_points
from test_basis import monomial_norm_quadrature


def _timed(fn, cfg):
    t0 = time.perf_counter()
    report = fn(cfg)
    return report, time.perf_counter() - t0


def _check(report, name):
    got = {c["name"]: c for c in report.checks}
    assert name in got, f"missing check {name}"
    return got[name]


def _announce(num, passed, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def kernel_report():
    return _timed(run_kernel_diag, ExperimentConfig("kernel-diag", k_grid=(32, 64, 128)))


@pytest.fixture(scope="module")
def embed_report():
    return _timed(run_embed_check, ExperimentConfig("embed-check", k_grid=(32, 64, 128, 256)))


@pytest.fixture(scope="module")
def lp_closed_report():
    return _timed(run_lp_closed, ExperimentConfig("lp-closed"))


@pytest.fixture(scope="module")
def lp_boundary_report():
    return _timed(run_lp_boundary, ExperimentConfig("lp-boundary"))


@pytest.fixture(scope="module")
def expectation_cr_report():
    cfg = ExperimentConfig("expectation-cr", k_grid=(48,), trials=4000, level=20)
    return _timed(run_expectation_cr, cfg)


@pytest.fixture(scope="module")
def expectation_domain_report():
    cfg = ExperimentConfig("expectation-domain", k_grid=(32,), trials=2000, kappa=1)
    return _timed(run_expectation_domain, cfg)


@pytest.fixture(scope="module")
def equi_cr_report():
    cfg = ExperimentConfig("equi-cr", k_grid=(16, 32, 64, 128), trials=400)
    return _timed(run_equidistribution_cr, cfg)


@pytest.fixture(scope="module")
def equi_domain_report():
    cfg = ExperimentConfig("equi-domain", k_grid=(16, 32, 64, 128))
    return _timed(run_equidistribution_domain, cfg)


@pytest.fixture(scope="module")
def variance_report():
    cfg = ExperimentConfig("variance-cr", k_grid=(16, 32, 64, 128), trials=600)
    return _timed(run_variance_cr, cfg)


def test_criterion_01_diagonal_asymptotics(kernel_report):
    report, elapsed = kernel_report
    check = _check(report, "diag-order-in-band")
    _announce(1, check["passed"] and elapsed < 10.0,
              f"{check['detail']}; {elapsed:.1f}s < 10s")


def test_criterion_02_diagonal_derivative(kernel_report):
    report, elapsed = kernel_report
    check = _check(report, "beta-error-halving")
    _announce(2, check["passed"] and elapsed < 10.0,
              f"{check['detail']}; {elapsed:.1f}s < 10s")


def test_criterion_03_fubini_study_expansion(embed_report):
    report, elapsed = embed_report
    a = _check(report, "fs-reeb-order")
    b = _check(report, "fs-horizontal-5pct")
    _announce(3, a["passed"] and b["passed"] and elapsed < 30.0,
              f"{a['detail']}; {b['detail']}; {elapsed:.1f}s < 30s")


def test_criterion_04_hessian_identity(embed_report):
    report, elapsed = embed_report
    check = _check(report, "hessian-identity-1e-4")
    _announce(4, check["passed"] and elapsed < 30.0,
              f"{check['detail']}; {elapsed:.1f}s < 30s")


def test_criterion_05_negativity_and_separation(embed_report):
    report, elapsed = embed_report
    a = _check(report, "hessian-negative-definite")
    b = _check(report, "separation-max-h")
    _announce(5, a["passed"] and b["passed"] and elapsed < 60.0,
              f"{a['detail']}; {b['detail']}; {elapsed:.1f}s < 60s")


def test_criterion_06_closed_lelong_poincare(lp_closed_report):
    report, elapsed = lp_closed_report
    check = _check(report, "oracle-z1")
    _announce(6, check["passed"] and elapsed < 60.0,
              f"{check['detail']}; {elapsed:.1f}s < 60s")


def test_criterion_07_boundary_lelong_poincare(lp_boundary_report):
    report, elapsed = lp_boundary_report
    a = _check(report, "disc-oracle")
    b = _check(report, "stokes-cancellation")
    _announce(7, a["passed"] and b["passed"] and elapsed < 120.0,
              f"{a['detail']}; {b['detail']}; {elapsed:.1f}s < 120s")


def test_criterion_08_expectation_cr(expectation_cr_report):
    report, elapsed = expectation_cr_report
    names = ["expectation-vol-z2", "expectation-vol-z1", "expectation-mixed-11"]
    checks = [_check(report, n) for n in names]
    ok = all(c["passed"] for c in checks) and elapsed < 600.0
    _announce(8, ok, "; ".join(c["detail"] for c in checks) + f"; {elapsed:.0f}s < 600s")


def test_criterion_09_expectation_domain(expectation_domain_report):
    report, elapsed = expectation_domain_report
    names = ["expectation-vol-z2", "expectation-bump-z2"]
    checks = [_check(report, n) for n in names]
    ok = all(c["passed"] for c in checks) and elapsed < 900.0
    _announce(9, ok, "; ".join(c["detail"] for c in checks) + f"; {elapsed:.0f}s < 900s")


def test_criterion_10_equidistribution(equi_cr_report, equi_domain_report):
    cr_report, cr_t = equi_cr_report
    dom_report, dom_t = equi_domain_report
    a = _check(cr_report, "order-angular-z2")
    b = _check(cr_report, "vanishing-limit-horizontal-mix")
    e = _check(cr_report, "mean-matches-expectation-angular-z2")
    c = _check(dom_report, "rate-vol-z2")
    d = _check(dom_report, "rate-bump-z2")
    ok = all(x["passed"] for x in (a, b, c, d, e)) and (cr_t + dom_t) < 1200.0
    _announce(10, ok, f"{a['detail']}; {e['detail']}; {c['detail']}; "
                      f"total {cr_t + dom_t:.0f}s < 1200s")


def test_criterion_11_variance_decay(variance_report):
    report, elapsed = variance_report
    a = _check(report, "variance-over-k32-band")
    b = _check(report, "variance-over-k2-decay")
    _announce(11, a["passed"] and b["passed"] and elapsed < 600.0,
              f"{a['detail']}; {b['detail']}; {elapsed:.0f}s < 600s")


def test_criterion_12_tail_proxy(equi_cr_report):
    report, elapsed = equi_cr_report
    a = _check(report, "tail-angular-z2")
    b = _check(report, "tail-horizontal-mix")
    _announce(12, a["passed"] and b["passed"],
              f"{a['detail']}; {b['detail']} (folded into criterion 10 budget)")


def test_criterion_13_exact_value_suite():
    t0 = time.perf_counter()
    # band mean of the squared unit-interval indicator
    ind = Cutoff(0.0, 1.0, "indicator")
    mv = mean_value(ind)
    ok_mv = abs(mv - 2.0 / 3.0) <= 1e-12
    # monomial norms against the closed Beta values
    ok_norms = True
    for alpha in ((0, 0), (1, 0), (2, 1), (4, 3), (7, 2)):
        quad = monomial_norm_quadrature(alpha, npts=24)
        ok_norms &= abs(quad - monomial_norm_closed_form(alpha)) <= 1e-10 * monomial_norm_closed_form(alpha)
    # covariance identity at ten thousand draws
    table = DegreeTable(28)
    ens = RandomEnsemble(table, Cutoff(), 32, kappa=0, master_seed=424242)
    pts = random_sphere_points(2, rng=np.random.default_rng(7))
    vals = NodeEvaluator(ens, pts).values(ens.draw_matrix(range(10_000)))
    prod = vals[:, 0] * np.conj(vals[:, 1])
    se = float(np.std(prod)) / math.sqrt(len(prod))
    gap = float(abs(prod.mean() - ens.field.kernel(pts[0], pts[1])))
    ok_cov = gap <= 4.0 * se
    elapsed = time.perf_counter() - t0
    _announce(13, ok_mv and ok_norms and ok_cov and elapsed < 60.0,
              f"mv(indicator^2) = {mv:.12f} (= 2/3); Beta norms <= 1e-10; "
              f"covariance gap {gap:.3e} <= 4 SE ({4 * se:.3e}); {elapsed:.0f}s < 60s")
