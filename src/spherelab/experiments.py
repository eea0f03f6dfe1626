"""Monte Carlo and scale-grid experiments behind the CLI subcommands.

Every experiment is a pure function of its configuration (which includes
the master seed): draws are counter-based per trial index, reductions
run in fixed trial order, and reports are byte-stable across reruns.

Statistical verdicts follow one policy: an estimate agrees with its
reference when |estimate - reference| <= 3 * standard_error + budget,
where the budget collects deterministic quadrature/extrapolation error
measured on control subsamples.  Rate verdicts fit constants on the
first half of the scale grid and require the second half to stay within
a fixed multiple; no hidden tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from spherelab import forms
from spherelab.basis import DegreeTable
from spherelab.currents import (BoundaryPairingContext, CRPairingContext,
                                _lagrange_at_zero, catalog_function,
                                divisor_pairing_boundary, divisor_pairing_closed,
                                zero_set_direct)
from spherelab.cutoffs import Cutoff, mean_value, variance
from spherelab.embedding import EmbeddingMap
from spherelab.ensemble import RandomEnsemble
from spherelab.geometry import ContactData, random_sphere_points, tangent_frame
from spherelab.kernels import KernelField
from spherelab.quadrature import (BallRule, SphereRule, _standard_frame_directions,
                                  contact_one_form)
from spherelab.reporting import ExperimentReport

__all__ = ["ExperimentConfig", "ExperimentError", "EXPERIMENTS", "one_form",
           "surface_form", "ONE_FORMS", "SURFACE_FORMS"]


class ExperimentError(RuntimeError):
    """Precondition failure (bad trial counts, excessive rejections)."""


# --------------------------------------------------------------- test forms
def _build_one_forms():
    x0, x1, x2, x3 = (forms.x_coord(i) for i in range(4))
    dx0, dx1, dx2, dx3 = (forms.dx(i) for i in range(4))
    angular_z2 = x2 * dx3 - x3 * dx2
    angular_z1 = x0 * dx1 - x1 * dx0
    abs_z1 = forms.z_coord(0) * forms.zbar_coord(0)
    abs_z2 = forms.z_coord(1) * forms.zbar_coord(1)
    horizontal_mix = abs_z2 * angular_z1 - abs_z1 * angular_z2
    return {
        "angular-z2": angular_z2,
        "angular-z1": angular_z1,
        "horizontal-mix": horizontal_mix,
    }


def _build_surface_forms():
    z1, z2 = forms.z_coord(0), forms.z_coord(1)
    zb1, zb2 = forms.zbar_coord(0), forms.zbar_coord(1)
    vol_z2 = forms.dz(1) * forms.dzbar(1) * 0.5j
    vol_z1 = forms.dz(0) * forms.dzbar(0) * 0.5j
    mixed = (zb1 * z2 * forms.dz(0) * forms.dzbar(1)
             + z1 * zb2 * forms.dz(1) * forms.dzbar(0)) * 0.5j
    bump = (1.0 + z1 * zb1) * vol_z2
    cut = 1.0 - (z1 * zb1 + z2 * zb2)
    interior = cut * cut * cut * (vol_z1 + vol_z2)
    return {
        "vol-z2": vol_z2,
        "vol-z1": vol_z1,
        "mixed-11": mixed,
        "bump-z2": bump,
        "interior-only": interior,
    }


ONE_FORMS = _build_one_forms()
SURFACE_FORMS = _build_surface_forms()


def one_form(name):
    return ONE_FORMS[name]


def surface_form(name):
    return SURFACE_FORMS[name]


# ------------------------------------------------------------ configuration
@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 20240817
    cutoff: Cutoff = field(default_factory=Cutoff)
    k_grid: tuple = (16, 32, 64, 128)
    trials: int = 400
    level: int = 16
    ball_level: int = 12
    ball_radial: int = 28
    deltas: tuple = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    mc_deltas: tuple = (1e-2, 1e-3, 1e-4)
    filter_threshold: float = 1e-6
    cell_base: int = 6
    cell_nodes: int = 4
    refine_depth: int = 10
    kappa: int = 0

    def validated_for_statistics(self):
        if self.trials < 2:
            raise ExperimentError("standard errors need at least 2 trials")
        if self.trials < 100:
            raise ExperimentError("statistical assertions need >= 100 trials")
        return self


_EXPERIMENT_DEFAULTS = {
    "kernel-diag": {"k_grid": (32, 64, 128)},
    "embed-check": {"k_grid": (32, 64, 128, 256)},
    "lp-closed": {},
    "lp-boundary": {},
    "expectation-cr": {"k_grid": (48,), "trials": 4000, "level": 20},
    "equi-cr": {"k_grid": (16, 32, 64, 128), "trials": 400},
    "variance-cr": {"k_grid": (16, 32, 64, 128), "trials": 600},
    "equi-domain": {"k_grid": (16, 32, 64, 128)},
    "expectation-domain": {"k_grid": (32,), "trials": 2000, "kappa": 1},
}


def config_from_resolved(experiment, resolved):
    """Build the experiment configuration from a resolved flat config."""

    def get(key, default=None):
        return resolved.get(key, default)

    def as_tuple(text, cast):
        return tuple(cast(p) for p in str(text).split(",") if p.strip())

    base = dict(
        experiment=experiment,
        seed=int(get("run.seed")),
        cutoff=Cutoff(float(get("cutoff.delta1")), float(get("cutoff.delta2")),
                      get("cutoff.shape"), float(get("cutoff.sharpness"))),
        k_grid=as_tuple(get("grid.k_grid"), int),
        trials=int(get("mc.trials")),
        level=int(get("quadrature.level")),
        ball_level=int(get("quadrature.ball_level")),
        ball_radial=int(get("quadrature.ball_radial")),
        cell_base=int(get("quadrature.cell_base")),
        cell_nodes=int(get("quadrature.cell_nodes")),
        refine_depth=int(get("quadrature.refine_depth")),
        deltas=as_tuple(get("currents.deltas"), float),
        mc_deltas=as_tuple(get("currents.mc_deltas"), float),
        filter_threshold=float(get("currents.filter_threshold")),
    )
    explicit = getattr(resolved, "explicit", set())
    global_of = {"k_grid": "grid.k_grid", "trials": "mc.trials",
                 "level": "quadrature.level", "kappa": None}
    for key, val in _EXPERIMENT_DEFAULTS.get(experiment, {}).items():
        if global_of.get(key) not in explicit:
            base[key] = val
    # an experiment-specific section always wins
    for key in ("k_grid", "trials", "level", "kappa", "seed"):
        override = resolved.get(f"{experiment}.{key}")
        if override is not None:
            base[key] = as_tuple(override, int) if key == "k_grid" else int(override)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- helpers
_TABLE_CACHE = {}


def degree_table_for(kmax, cutoff):
    """Shared degree table sized ceil(delta2 * kmax) + 2."""
    max_degree = int(math.ceil(cutoff.delta2 * kmax)) + 2
    key = max_degree
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = DegreeTable(max_degree)
    return _TABLE_CACHE[key]


def fit_order(ks, errs):
    """Exponent p of err ~ C k^{-p} by least squares on the log-log cloud."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    good = errs > 0
    if good.sum() < 2:
        return float("nan")
    slope = np.polyfit(np.log(ks[good]), np.log(errs[good]), 1)[0]
    return -float(slope)


def _complex_se(values):
    """Standard error of the complex mean: sqrt(E|X - mean|^2 / N)."""
    values = np.asarray(values)
    if values.size < 2:
        raise ExperimentError("standard errors need at least 2 trials")
    centered = values - values.mean()
    return math.sqrt(float(np.mean(np.abs(centered) ** 2)) / values.size)


class _DeltaLimit:
    """Richardson limit in sqrt(delta) of per-delta values (last axis), with
    the error estimate of currents.richardson_sqrt: the change from dropping
    the coarsest delta (none for a single delta)."""

    def __init__(self, deltas):
        self.deltas = tuple(sorted(deltas))
        x = np.sqrt(np.asarray(self.deltas))
        self._wfull = _lagrange_at_zero(x, np.eye(len(x))).real
        self._wred = (_lagrange_at_zero(x[:-1], np.eye(len(x) - 1)).real
                      if len(x) > 1 else self._wfull)

    def limit(self, per):
        full = per @ self._wfull
        red = per[..., :len(self._wred)] @ self._wred
        return full, np.abs(full - red)


def _stacked_slot_weights(contexts, scale):
    """(nodes, npsi) matrices of the contexts' slot weights times scale."""
    g1, g2 = zip(*(ctx.slot_weights() for ctx in contexts))
    return (np.stack(g1, axis=1) * scale[:, None], np.stack(g2, axis=1) * scale[:, None])


class CfSampler(_DeltaLimit):
    """Batched regularized cf values for one ensemble on a fixed rule.

    Takes a tuple of CRPairingContext on one rule (one per test 2-form)
    and returns one column per form: each batch of draws is evaluated once
    (values and slot sums), and df ^ psi is x1 g1 + x2 g2 with per-form
    node weights fixed at construction.
    """

    def __init__(self, ensemble, contexts, deltas):
        super().__init__(deltas)
        rule = contexts[0].rule
        self.ev = ensemble.evaluator(rule)
        self._rms_weights = rule.weights / rule.weights.sum()
        self._g1, self._g2 = _stacked_slot_weights(
            contexts, rule.pairing_weights / (2j * math.pi))

    def batch(self, coeff_rows):
        """(values, err_estimates), each (rows, forms), for the rows of draw
        coefficients."""
        vals = self.ev.values(coeff_rows)
        x1, x2 = self.ev.slot1_sums(coeff_rows)
        fsq = np.abs(vals) ** 2
        scale_sq = (fsq @ self._rms_weights)[:, None]
        fsq /= scale_sq
        # conj(f / s) * df / s with f normalized by its rms s
        conj_f = np.conj(vals) / scale_sq
        c1 = conj_f * x1
        c2 = conj_f * x2
        per = np.empty((vals.shape[0], self._g1.shape[1], len(self.deltas)), dtype=complex)
        for i, d in enumerate(self.deltas):
            inv = 1.0 / (fsq + d)
            per[:, :, i] = (c1 * inv) @ self._g1 + (c2 * inv) @ self._g2
        return self.limit(per)


def _real_dot(rows, weights):
    """Real rows times complex weights without promoting the rows."""
    return rows @ weights.real + 1j * (rows @ weights.imag)


class BoundarySampler(_DeltaLimit):
    """Batched boundary divisor pairings for the kappa = 1 ensemble, one
    column per (1,1)-form of the tuple psis."""

    def __init__(self, ensemble, sphere_rule, ball_rule, psis, deltas):
        super().__init__(deltas)
        self.ev_sphere = ensemble.evaluator(sphere_rule)
        self.ev_ball = ensemble.evaluator(ball_rule)
        self._rms_weights = sphere_rule.weights / sphere_rule.weights.sum()
        contexts = [BoundaryPairingContext(sphere_rule, ball_rule, psi) for psi in psis]
        pair_weights = sphere_rule.pairing_weights
        self._g1, self._g2 = _stacked_slot_weights(contexts, 0.5 * pair_weights)
        self._w_dbar = np.stack([pair_weights * ctx.dbar_top for ctx in contexts], axis=1)
        self._w_ddbar = np.stack([ball_rule.weights * ctx.ddbar_top for ctx in contexts],
                                 axis=1)
        self._shift_scale = (1j / math.pi) * (-self._w_dbar.sum(axis=0)
                                              + self._w_ddbar.sum(axis=0))

    def batch(self, coeff_rows):
        u_s = self.ev_sphere.values(coeff_rows)
        x1, x2 = self.ev_sphere.slot1_sums(coeff_rows)
        usq = np.abs(u_s) ** 2
        scale_sq = (usq @ self._rms_weights)[:, None]
        usq /= scale_sq
        conj_u = np.conj(u_s) / scale_sq
        c1 = conj_u * x1
        c2 = conj_u * x2
        bsq = np.abs(self.ev_ball.values(coeff_rows)) ** 2 / scale_sq
        per = np.empty((u_s.shape[0], self._g1.shape[1], len(self.deltas)), dtype=complex)
        for i, d in enumerate(self.deltas):
            inv = 1.0 / (usq + d)
            t1 = (c1 * inv) @ self._g1 + (c2 * inv) @ self._g2
            t2 = _real_dot(0.5 * np.log(usq + d), self._w_dbar)
            t3 = _real_dot(0.5 * np.log(bsq + d), self._w_ddbar)
            per[:, :, i] = (1j / math.pi) * (-t1 - t2 + t3)
        # log|u| = log|u / s| + log s restores the normalization shift
        per += (0.5 * np.log(scale_sq) * self._shift_scale)[:, :, None]
        return self.limit(per)


# Fixed micro-batch: GEMM reduction order depends on operand shapes, so a
# constant row count keeps per-draw values bit-identical no matter how the
# caller groups trials.
_MICRO_BATCH = 32


def _batched_values(sampler, coeff_rows):
    vals = []
    errs = []
    for start in range(0, coeff_rows.shape[0], _MICRO_BATCH):
        v, e = sampler.batch(coeff_rows[start:start + _MICRO_BATCH])
        vals.append(v)
        errs.append(e)
    return np.concatenate(vals), np.concatenate(errs)


def _beta_reference(field_eta, ctx):
    """Integral of the expected-zero one-form wedged with the context's psi,
    two routes.

    Route one uses the closed identity beta = scale * contact form; route
    two assembles beta pointwise from the raw kernel ratio and the psi
    values of the CRPairingContext.  They must agree to 1e-10; the shared
    value is returned.
    """
    rule = ctx.rule
    xi_psi = contact_one_form(2).wedge(ctx.psi)
    route1 = field_eta.beta_scale() * rule.pair_form(xi_psi)
    betas = []
    for hol in ctx.frame_holo:
        betas.append(field_eta.grad_diag_pair(rule.points, hol)
                     / (2j * math.pi * field_eta.squared_length()))
    top = betas[0] * ctx.psi_12 - betas[1] * ctx.psi_02 + betas[2] * ctx.psi_01
    route2 = rule.pair_values(top)
    if abs(route1 - route2) > 1e-10 * max(1.0, abs(route1)):
        raise ArithmeticError(
            f"beta reference code paths disagree: {route1} vs {route2}")
    return route1


# ------------------------------------------------------------- experiments
def run_kernel_diag(config: ExperimentConfig):
    """Diagonal kernel and diagonal-derivative asymptotics over the grid."""
    report = ExperimentReport("kernel-diag")
    cut = config.cutoff
    table = degree_table_for(max(config.k_grid), cut)
    cd = ContactData()
    rng = np.random.default_rng(config.seed)
    x = random_sphere_points(1, rng=rng)[0]
    reeb = cd.reeb(x)
    diag_errs = []
    beta_errs = []
    mv = mean_value(cut, 1)
    for k in config.k_grid:
        kf = KernelField(table, cut, k, weight="squared")
        ratio = kf.diag() / kf.diag_reference()
        diag_errs.append(abs(ratio - 1.0))
        beta = kf.beta_pair(x, reeb)
        beta_val = (2.0 * math.pi / k) * beta
        beta_errs.append(abs(beta_val - mv))
        report.add_row(k, "diag-ratio", ratio, 1.0)
        report.add_row(k, "beta-reeb", beta_val, mv)
    order = fit_order(config.k_grid, diag_errs)
    for i, k in enumerate(config.k_grid):
        report.rows[2 * i]["observed_order"] = repr(order)
    report.add_check("diag-order-in-band", 0.6 <= order <= 1.4,
                     f"observed order {order:.3f} in [0.6, 1.4]")
    ratios = [beta_errs[i + 1] / beta_errs[i] for i in range(len(beta_errs) - 1)]
    ok = all(0.35 <= r <= 0.7 for r in ratios)
    report.add_check("beta-error-halving", ok,
                     "consecutive error ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    fitted_c = max(e * k for e, k in zip(beta_errs, config.k_grid))
    report.add_check("beta-fitted-constant", True,
                     f"fitted C = {fitted_c:.4f} (reported, not asserted)")
    return report


def run_embed_check(config: ExperimentConfig):
    """Fubini-Study asymptotics, Hessian identity, negativity, separation."""
    report = ExperimentReport("embed-check")
    cut = config.cutoff
    table = degree_table_for(max(config.k_grid), cut)
    rng = np.random.default_rng(config.seed)
    x = random_sphere_points(1, rng=rng)[0]
    cd = ContactData()
    reeb = cd.reeb(x)
    var_ref = variance(cut, 1)
    mv_ref = mean_value(cut, 1)
    tt_errs = []
    maps = {}
    for k in config.k_grid:
        em = EmbeddingMap(table, cut, k)
        maps[k] = em
        tt = (em.fs_pullback(x, reeb, reeb) / k ** 2).real
        tt_errs.append(abs(tt - var_ref))
        report.add_row(k, "fs-reeb-reeb", tt, var_ref)
    order = fit_order(config.k_grid, tt_errs)
    for i in range(len(config.k_grid)):
        report.rows[i]["observed_order"] = repr(order)
    report.add_check("fs-reeb-order", 0.6 <= order <= 1.4,
                     f"observed order {order:.3f}")
    # next-order coefficient, reported without a reference value
    resid = np.asarray(tt_errs) * np.asarray(config.k_grid, dtype=float)
    report.add_check("fs-next-coefficient", True,
                     f"fitted next-order coefficient {np.mean(resid):.4f} (reported)")

    k_last = max(config.k_grid)
    em_last = maps[k_last]
    frame = tangent_frame(x)
    w = frame[1]  # unit horizontal; its (1,0) representative is itself
    horiz = (em_last.fs_pullback(x, w, w) / k_last).real
    ref = mv_ref * float(np.sum(np.abs(w) ** 2))
    report.add_row(k_last, "fs-horizontal", horiz, ref)
    report.add_check("fs-horizontal-5pct", abs(horiz - ref) <= 0.05 * abs(ref),
                     f"relative gap {abs(horiz - ref) / abs(ref):.2e} at k = {k_last}")

    # Hessian vs finite differences of the overlap profile at k = 64.
    # The curvature of the profile x -> h(x, y) at its maximum equals
    # exactly twice the displayed bilinear form (the factor is checked,
    # not fitted: it comes from |F/|F|| being constrained to the unit
    # sphere of the component space).
    k_h = 64 if 64 in config.k_grid else config.k_grid[min(1, len(config.k_grid) - 1)]
    em_h = maps.get(k_h) or EmbeddingMap(table, cut, k_h)
    pts = random_sphere_points(100, rng=rng)
    h_step = 3.2e-3 / k_h
    worst = 0.0
    for p in pts:
        fr = tangent_frame(p)
        exact = em_h.overlap_hessian_matrix(p, fr)
        fd = 0.5 * _fd_hessian(em_h, p, fr, h_step)
        worst = max(worst, np.linalg.norm(fd - exact) / np.linalg.norm(exact))
    report.add_check("hessian-identity-1e-4", worst <= 1e-4,
                     f"max relative deviation {worst:.2e} over 100 points at k = {k_h} "
                     "(profile curvature = 2 x bilinear form)")

    # negative definiteness and separation at k >= 64
    neg_ok = True
    detail = []
    for k in [k for k in config.k_grid if k >= 64]:
        em = maps[k]
        top_eig = max(np.linalg.eigvalsh(em.overlap_hessian_matrix(p)).max()
                      for p in random_sphere_points(100, rng=rng))
        neg_ok &= top_eig < 0.0
        detail.append(f"k={k}: max eig {top_eig:.3e}")
    report.add_check("hessian-negative-definite", neg_ok, "; ".join(detail))

    scan_ks = [k for k in config.k_grid if k >= 64]
    scan_ok = True
    scan_detail = []
    for k in scan_ks:
        scan = maps[k].separation_scan(sample_size=400, min_distance=0.5,
                                       rng=np.random.default_rng(config.seed + k))
        scan_ok &= scan["max_h"] <= 0.5 and scan["violations_above_one"] == 0
        scan_detail.append(f"k={k}: max h {scan['max_h']:.3e} over {scan['pairs']} pairs")
    report.add_check("separation-max-h", scan_ok, "; ".join(scan_detail))

    # structural convergence of the rescaled Hessian
    limit = -np.diag([var_ref, mv_ref, mv_ref])
    devs = []
    for k in config.k_grid:
        devs.append(float(np.max(np.abs(maps[k].scaled_hessian_matrix(x) - limit))))
    ratios = [devs[i + 1] / devs[i] for i in range(len(devs) - 1)]
    report.add_check("scaled-hessian-structure", all(r <= 0.8 for r in ratios),
                     "deviation ratios " + ", ".join(f"{r:.3f}" for r in ratios))
    return report


def _fd_hessian(em, p, fr, h):
    """Central-difference Hessian of the overlap profile at its maximum."""
    dim = len(fr)

    def second(u):
        def g(t):
            moved = p + t * u
            moved = moved / np.linalg.norm(moved)
            return float(em.normalized_overlap(moved, p).real)

        return (g(h) + g(-h) - 2.0) / h ** 2

    out = np.empty((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            if i == j:
                out[i, i] = second(fr[i])
            else:
                plus = second(fr[i] + fr[j])
                minus = second(fr[i] - fr[j])
                out[i, j] = out[j, i] = (plus - minus) / 4.0
    return out


def _cell_counts(res):
    """Final and still-flagged cell counts of a refined pairing, for check details."""
    return f"cells {res.extras['cells']}, unresolved {res.extras['unresolved_cells']}"


def run_lp_closed(config: ExperimentConfig):
    """Closed-manifold zero-divisor pairings against direct oracles."""
    report = ExperimentReport("lp-closed")
    cases = [("z1", "angular-z2"), ("z2", "angular-z1")]
    for fname, psi_name in cases:
        psi = one_form(psi_name)
        res = divisor_pairing_closed(catalog_function(fname), psi,
                                     deltas=config.deltas,
                                     base_cells=config.cell_base,
                                     nodes_per_axis=config.cell_nodes,
                                     refine_depth=config.refine_depth)
        direct = zero_set_direct(fname, psi)
        report.add_row("", f"pairing-{fname}-{psi_name}", res.value, direct)
        tol = max(0.01 * abs(direct), 3.0 * res.err_est)
        report.add_check(f"oracle-{fname}", abs(res.value - direct) <= tol,
                         f"pairing {res.value.real:.8f} vs direct {direct.real:.8f}, "
                         f"err_est {res.err_est:.2e}, {_cell_counts(res)}")
        report.add_check(f"log-monotone-{fname}", res.log_monotone,
                         "regularized log integrals monotone in delta")
    # exact-form test: pairing with d(polynomial) vanishes, on both routes
    phi = forms.x_coord(0) * forms.x_coord(2)
    res = divisor_pairing_closed(catalog_function("z1"), phi.d(),
                                 deltas=config.deltas,
                                 base_cells=config.cell_base,
                                 nodes_per_axis=config.cell_nodes,
                                 refine_depth=config.refine_depth)
    direct = zero_set_direct("z1", phi.d())
    budget = max(3.0 * res.err_est, 1e-6)
    report.add_row("", "pairing-z1-exact-form", res.value, 0.0)
    report.add_check("closedness", abs(res.value) <= budget and abs(direct) <= 1e-10,
                     f"regularized {abs(res.value):.2e}, direct {abs(direct):.2e}")
    return report


def run_lp_boundary(config: ExperimentConfig):
    """Boundary Lelong-Poincare pairings on the unit ball."""
    report = ExperimentReport("lp-boundary")
    psi = surface_form("vol-z2")
    res = divisor_pairing_boundary(catalog_function("z1-half"), psi,
                                   deltas=config.deltas,
                                   base_cells=config.cell_base,
                                   nodes_per_axis=config.cell_nodes,
                                   refine_depth=config.refine_depth,
                                   ball_level=config.ball_level)
    direct = zero_set_direct("z1-half", psi)
    report.add_row("", "pairing-z1-half-vol-z2", res.value, direct)
    tol = max(0.01 * abs(direct), 3.0 * res.err_est)
    report.add_check("disc-oracle", abs(res.value - direct) <= tol,
                     f"pairing {res.value.real:.8f} vs direct {direct.real:.8f} "
                     f"(3 pi / 4 = {3 * math.pi / 4:.8f}), {_cell_counts(res)}")

    psi_poly = surface_form("bump-z2")
    res2 = divisor_pairing_boundary(catalog_function("nowhere-zero"), psi_poly,
                                    deltas=config.deltas,
                                    base_cells=config.cell_base,
                                    nodes_per_axis=config.cell_nodes,
                                    refine_depth=config.refine_depth,
                                    ball_level=config.ball_level)
    budget = max(3.0 * res2.err_est, 1e-5)
    report.add_row("", "pairing-nowhere-zero", res2.value, 0.0)
    report.add_check("stokes-cancellation", abs(res2.value) <= budget,
                     f"|pairing| = {abs(res2.value):.2e} <= {budget:.2e}")

    # psi ^ du " 0 pointwise forces a vanishing pairing
    res3 = divisor_pairing_boundary(catalog_function("z1-half"), surface_form("vol-z1"),
                                    deltas=config.deltas,
                                    base_cells=config.cell_base,
                                    nodes_per_axis=config.cell_nodes,
                                    refine_depth=config.refine_depth,
                                    ball_level=config.ball_level)
    budget3 = max(3.0 * res3.err_est, 1e-5)
    report.add_row("", "pairing-z1-half-vol-z1", res3.value, 0.0)
    report.add_check("tangential-vanishing", abs(res3.value) <= budget3,
                     f"|pairing| = {abs(res3.value):.2e} <= {budget3:.2e}")
    return report


def _accepted_rows(ens, config, count):
    """Draw coefficients for `count` accepted trials, plus the reject rate."""
    rows = []
    trial = 0
    rejected = 0
    while len(rows) < count:
        batch = 256
        coeffs = ens.draw_matrix(range(trial, trial + batch))
        margins = ens.batch_margins(coeffs)
        for i in range(batch):
            if margins[i] >= config.filter_threshold:
                rows.append(coeffs[i])
            else:
                rejected += 1
            if len(rows) == count:
                break
        trial += batch
        if trial > 20 * count:
            raise ExperimentError("regularity filter rejected too many draws")
    rate = rejected / (rejected + count)
    if rate > 0.05:
        raise ExperimentError(f"filter reject rate {rate:.1%} exceeds 5%")
    return np.asarray(rows), rate


def run_expectation_cr(config: ExperimentConfig):
    """Monte Carlo mean of cf(psi) against the exact one-form reference."""
    config.validated_for_statistics()
    report = ExperimentReport("expectation-cr")
    cut = config.cutoff
    k = config.k_grid[0]
    table = degree_table_for(k, cut)
    ens = RandomEnsemble(table, cut, k, kappa=config.kappa, master_seed=config.seed)
    rule = SphereRule(config.level)
    rows, rate = _accepted_rows(ens, config, config.trials)
    report.add_check("filter-rate", rate <= 0.05, f"reject rate {rate:.2%}")
    psi_names = ("vol-z2", "vol-z1", "mixed-11")
    contexts = tuple(CRPairingContext(rule, surface_form(name)) for name in psi_names)
    sampler = CfSampler(ens, contexts, config.mc_deltas)
    vals, errs = _batched_values(sampler, rows)
    # scale invariance: doubling all coefficients leaves cf unchanged
    v1 = sampler.batch(rows[:4])[0][:, 0]
    v2 = sampler.batch(2.0 * rows[:4])[0][:, 0]
    nctl = min(64, rows.shape[0])
    ctl_rule = SphereRule(config.level + 8)
    ctl_sampler = CfSampler(ens, tuple(CRPairingContext(ctl_rule, ctx.psi) for ctx in contexts),
                            config.mc_deltas)
    ctl_vals, _ = _batched_values(ctl_sampler, rows[:nctl])
    for j, psi_name in enumerate(psi_names):
        mean = complex(np.mean(vals[:, j]))
        se = _complex_se(vals[:, j])
        ref = _beta_reference(ens.field, contexts[j])
        budget = (abs(np.mean(ctl_vals[:, j]) - np.mean(vals[:nctl, j]))
                  + float(np.mean(errs[:, j])))
        gap = abs(mean - ref)
        report.add_row(k, f"cf-mean-{psi_name}", mean, ref, std_err=se)
        report.add_check(f"expectation-{psi_name}", gap <= 3.0 * se + budget,
                         f"|mean - ref| = {gap:.3e} <= 3 SE ({3 * se:.3e}) + budget ({budget:.3e})")
    report.add_check("scale-invariance", bool(np.allclose(v1, v2, rtol=0, atol=1e-12)),
                     f"max |cf(2f) - cf(f)| = {float(np.max(np.abs(v1 - v2))):.2e}")
    return report


def run_equidistribution_cr(config: ExperimentConfig):
    """Normalized divisor pairings against the contact-volume limit."""
    config.validated_for_statistics()
    report = ExperimentReport("equi-cr")
    cut = config.cutoff
    mv = mean_value(cut, 1)
    table = degree_table_for(max(config.k_grid), cut)
    rule = SphereRule(config.level)
    d_xi = contact_one_form(2).d()
    for psi_name in ("angular-z2", "horizontal-mix"):
        psi = one_form(psi_name)
        limit = mv / (2.0 * math.pi) * rule.pair_form(d_xi.wedge(psi))
        ctx = CRPairingContext(rule, psi.d())
        c1 = psi.sampled_cnorm(rule.points, order=1)
        exact_gaps = []
        tail = []
        agree = []
        for k in config.k_grid:
            ens = RandomEnsemble(table, cut, k, kappa=0, master_seed=config.seed + k)
            rows, _ = _accepted_rows(ens, config, config.trials)
            sampler = CfSampler(ens, (ctx,), config.mc_deltas)
            vals, errs = _batched_values(sampler, rows)
            scaled = vals[:, 0] / k
            mean = complex(np.mean(scaled))
            se = _complex_se(scaled)
            # the rate statement concerns the expectations: compare the
            # exact normalized expectation with the limit, and separately
            # require the Monte Carlo mean to agree with that expectation
            exact = _beta_reference(ens.field, ctx) / k
            exact_gaps.append(abs(exact - limit))
            budget = float(np.mean(errs[:, 0])) / k
            agree.append(abs(mean - exact) <= 3.0 * se + budget)
            threshold = c1 / math.sqrt(k)
            freq = float(np.mean(np.abs(scaled - limit) >= threshold))
            tail.append(freq)
            report.add_row(k, f"scaled-divisor-{psi_name}", mean, limit, std_err=se)
        report.add_check(f"mean-matches-expectation-{psi_name}", all(agree),
                         f"per-k agreement within 3 SE + budget: " +
                         ", ".join("ok" if a else "FAIL" for a in agree))
        if abs(limit) > 1e-12:
            order = fit_order(config.k_grid, exact_gaps)
            report.add_check(f"order-{psi_name}", 0.6 <= order <= 1.4,
                             f"observed order {order:.3f} of the expectation gap")
        else:
            final = exact_gaps[-1]
            report.add_check(f"vanishing-limit-{psi_name}", final <= 0.05 * max(c1, 1.0),
                             f"limit is 0; final expectation gap {final:.3e}")
        half = max(2, len(config.k_grid) // 2)
        c_fit = max((tail[i] * math.sqrt(config.k_grid[i]) for i in range(half)), default=0.0)
        bound_ok = all(tail[i] <= max(1.25 * c_fit, 2.0 / config.trials) / math.sqrt(config.k_grid[i])
                       for i in range(len(config.k_grid)))
        report.add_check(f"tail-{psi_name}", bound_ok,
                         f"fitted C = {c_fit:.3f}; frequencies " +
                         ", ".join(f"{t:.3f}" for t in tail))
    return report


def run_variance_cr(config: ExperimentConfig):
    """Decay of the empirical variance of cf over the scale grid."""
    config.validated_for_statistics()
    report = ExperimentReport("variance-cr")
    cut = config.cutoff
    table = degree_table_for(max(config.k_grid), cut)
    rule = SphereRule(config.level)
    ctx = CRPairingContext(rule, surface_form("vol-z2"))
    variances = {}
    for kappa in (0, 1):
        var_list = []
        for k in config.k_grid:
            ens = RandomEnsemble(table, cut, k, kappa=kappa, master_seed=config.seed + k)
            rows, _ = _accepted_rows(ens, config, config.trials)
            sampler = CfSampler(ens, (ctx,), config.mc_deltas)
            vals = _batched_values(sampler, rows)[0][:, 0]
            v = float(np.mean(np.abs(vals - vals.mean()) ** 2))
            var_list.append(v)
            report.add_row(k, f"variance-kappa{kappa}", v)
        variances[kappa] = var_list
    v0 = variances[0]
    ks = np.asarray(config.k_grid, dtype=float)
    scaled = np.asarray(v0) / ks ** 1.5
    band_ok = all(scaled[i + 1] <= 2.0 * scaled[i] for i in range(1, len(scaled) - 1))
    report.add_check("variance-over-k32-band", band_ok,
                     "Var/k^(3/2): " + ", ".join(f"{s:.3e}" for s in scaled))
    quad = np.asarray(v0) / ks ** 2
    report.add_check("variance-over-k2-decay", quad[-1] <= 0.5 * quad[0],
                     f"Var/k^2 falls {quad[0]:.3e} -> {quad[-1]:.3e}")
    shape = np.asarray(variances[1]) / (1.0 + np.sqrt(ks))
    shape_ok = shape.max() <= 2.0 * max(shape[0], shape[1])
    report.add_check("variance-kappa1-shape", shape_ok,
                     "Var(kappa=1)/(1+sqrt k): " + ", ".join(f"{s:.3e}" for s in shape))
    return report


def _ddbar_pair_tables(psi, ball_rule):
    """Wedge tables (dz_j ^ dzbar_k ^ psi) on the ball's standard frame."""
    dirs = _standard_frame_directions()
    tables = np.empty((2, 2, ball_rule.npoints), dtype=complex)
    for j in range(2):
        for l in range(2):
            wedge = forms.dz(j).wedge(forms.dzbar(l)).wedge(psi)
            tables[j, l] = wedge.evaluate(ball_rule.points, dirs)
    return tables


def _domain_pairing(field, ball_rule, tables, c=1.0):
    """Integral of i ddbar log(c + amplitude) ^ psi over the ball."""
    h = field.ddbar_log(ball_rule.points, c=c)
    integrand = np.zeros(ball_rule.npoints, dtype=complex)
    for j in range(2):
        for l in range(2):
            integrand += h[:, j, l] * tables[j, l]
    return complex(np.dot(ball_rule.weights, 1j * integrand))


def run_equidistribution_domain(config: ExperimentConfig):
    """Deterministic curvature-mass concentration at the boundary."""
    report = ExperimentReport("equi-domain")
    cut = config.cutoff
    mv = mean_value(cut, 1)
    table = degree_table_for(max(config.k_grid), cut)
    ball_rule = BallRule(config.ball_level, radial=config.ball_radial)
    sphere_rule = ball_rule.sphere
    for psi_name in ("vol-z2", "bump-z2", "interior-only"):
        psi = surface_form(psi_name)
        tables = _ddbar_pair_tables(psi, ball_rule)
        boundary_ref = mv * sphere_rule.pair_form(contact_one_form(2).wedge(psi))
        errs = []
        for k in config.k_grid:
            kf = KernelField(table, cut, k, weight="squared")
            val = _domain_pairing(kf, ball_rule, tables, c=1.0) / k
            errs.append(abs(val - boundary_ref))
            report.add_row(k, f"domain-pairing-{psi_name}", val, boundary_ref)
        rate = [e * k / (math.log(k) + 1.0) for e, k in zip(errs, config.k_grid)]
        half = max(2, len(rate) // 2)
        c_fit = max(rate[:half])
        if abs(boundary_ref) > 1e-12:
            ok = all(r <= 1.25 * c_fit for r in rate)
            report.add_check(f"rate-{psi_name}", ok,
                             f"err*k/(log k + 1): " + ", ".join(f"{r:.3e}" for r in rate))
        else:
            report.add_check(f"interior-vanishing-{psi_name}", errs[-1] <= max(1e-3, 2.0 * errs[0] * config.k_grid[0] / config.k_grid[-1]),
                             f"boundary limit 0; gaps " + ", ".join(f"{e:.3e}" for e in errs))
    report.add_check("volume-normalization-note", True,
                     "contact volume fixed to (2^-n/n!) xi ^ (dxi)^n; "
                     "multiply reported masses by 2^n n! for the unnormalized convention")
    return report


def run_expectation_domain(config: ExperimentConfig):
    """Monte Carlo mean of boundary divisor pairings vs the smooth current."""
    config.validated_for_statistics()
    report = ExperimentReport("expectation-domain")
    cut = config.cutoff
    k = config.k_grid[0]
    table = degree_table_for(k, cut)
    ens = RandomEnsemble(table, cut, k, kappa=1, master_seed=config.seed)
    sphere_rule = SphereRule(config.level)
    ball_rule = BallRule(config.ball_level, radial=config.ball_radial)
    rows, rate = _accepted_rows(ens, config, config.trials)
    report.add_check("filter-rate", rate <= 0.05, f"boundary reject rate {rate:.2%}")
    psi_names = ("vol-z2", "bump-z2")
    psis = tuple(surface_form(name) for name in psi_names)
    sampler = BoundarySampler(ens, sphere_rule, ball_rule, psis, config.mc_deltas)
    vals, errs = _batched_values(sampler, rows)
    nctl = min(48, rows.shape[0])
    ctl = BoundarySampler(ens, SphereRule(config.level + 6), ball_rule, psis, config.mc_deltas)
    ctl_vals, _ = _batched_values(ctl, rows[:nctl])
    for j, psi_name in enumerate(psi_names):
        mean = complex(np.mean(vals[:, j]))
        se = _complex_se(vals[:, j])
        tables = _ddbar_pair_tables(psis[j], ball_rule)
        ref = _domain_pairing(ens.field, ball_rule, tables, c=1.0) / (2.0 * math.pi)
        budget = (abs(np.mean(ctl_vals[:, j]) - np.mean(vals[:nctl, j]))
                  + float(np.mean(errs[:, j])))
        gap = abs(mean - ref)
        report.add_row(k, f"divisor-mean-{psi_name}", mean, ref, std_err=se)
        report.add_check(f"expectation-{psi_name}", gap <= 3.0 * se + budget,
                         f"|mean - ref| = {gap:.3e} <= 3 SE ({3 * se:.3e}) + budget ({budget:.3e})")
    # deterministic cross-check through the same machinery
    res = divisor_pairing_boundary(catalog_function("z1-half"), surface_form("vol-z2"),
                                   deltas=config.deltas,
                                   base_cells=config.cell_base,
                                   nodes_per_axis=config.cell_nodes,
                                   refine_depth=config.refine_depth,
                                   ball_level=config.ball_level)
    direct = zero_set_direct("z1-half", surface_form("vol-z2"))
    report.add_check("catalog-crosscheck",
                     abs(res.value - direct) <= max(0.01 * abs(direct), 3 * res.err_est),
                     f"{res.value.real:.6f} vs {direct.real:.6f}, {_cell_counts(res)}")
    # scaled means approach the boundary limit (reported)
    mvref = mean_value(cut, 1) / (2.0 * math.pi) * sphere_rule.pair_form(
        contact_one_form(2).wedge(surface_form("vol-z2")))
    report.add_check("boundary-limit-note", True,
                     f"k^-1 reference at k={k}: "
                     f"{(_domain_pairing(ens.field, ball_rule, _ddbar_pair_tables(surface_form('vol-z2'), ball_rule)) / (2 * math.pi * k)).real:.5f}"
                     f" vs limit {mvref.real:.5f}")
    return report


EXPERIMENTS = {
    "kernel-diag": run_kernel_diag,
    "embed-check": run_embed_check,
    "lp-closed": run_lp_closed,
    "lp-boundary": run_lp_boundary,
    "expectation-cr": run_expectation_cr,
    "equi-cr": run_equidistribution_cr,
    "variance-cr": run_variance_cr,
    "equi-domain": run_equidistribution_domain,
    "expectation-domain": run_expectation_domain,
}
