"""Acceptance gate: nine end-to-end criteria, one test (and one printed
PASS line) per criterion.  Run with `pytest -v` for the per-criterion
verdicts; `-s` additionally shows the printed detail lines.
"""

import numpy as np
import pytest
from conftest import sized_spec

from femrisk.classifiers import ClassifierSpec
from femrisk.datamodel import derive_dxa_abmd, feature_columns
from femrisk.evaluate import (CvConfig, ResampleConfig, compare_with_frax,
                              fe9_matrix, fit_and_score, mix_seed, run_lgocv,
                              run_resample_comparison, stratified_split_indices)
from femrisk.femodel import (MaterialModel, SolveControl, ash_density, solve,
                             stance_bc, uniform_grid)
from femrisk.femodel.curves import (YIELD_CLUSTER_SIZE, ForceDisplacementCurve,
                                    NoYieldDetected, detect_yield_load,
                                    energy_to_failure)
from femrisk.stats import (auc_mann_whitney, delong_compare, fit_logistic,
                           fit_linear_model, fit_pca, pc_scores,
                           select_significant_pcs, ttest_from_summary)
from femrisk.synth import calibration_check, default_spec, generate_cohort

GROUPS = ("male_control", "male_fx", "female_control", "female_fx")


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(default_spec(), seed=42)


def report(n, detail):
    print(f"CRITERION {n}: PASS ({detail})")


def test_criterion_1_formula_exactness():
    assert abs(ash_density(0.0) - 0.0633) < 1e-12
    assert abs(ash_density(1.0) - 0.9503) < 1e-12
    assert abs(derive_dxa_abmd(0.0) - 0.137) < 1e-12
    assert abs(derive_dxa_abmd(0.5) - 0.599) < 1e-12
    report(1, "ash density and derived aBMD anchors exact to 1e-12")


def test_criterion_2_summary_pvalues():
    p_mw = ttest_from_summary(92, 82.8, 14.9, 42, 78.7, 13.5).p
    p_fw = ttest_from_summary(143, 68.7, 13.7, 68, 64.2, 15.0).p
    p_flu = ttest_from_summary(143, 3256.7, 650.6, 68, 3019.9, 551.4).p
    assert abs(p_mw - 0.120) < 0.02
    assert abs(p_fw - 0.036) < 0.02
    assert abs(p_flu - 0.007) < 0.02
    report(2, f"summary t-tests: {p_mw:.3f}/{p_fw:.3f}/{p_flu:.3f} "
              "vs 0.120/0.036/0.007")


def test_criterion_3_fe_analytic_checks():
    from femrisk.femodel.solver import BoundaryCondition, node_id

    rho = 0.25
    ash = ash_density(rho)
    elastic = MaterialModel(c_S=1e6, f_soft=0.0, eps_plateau=10.0)

    # (a) single fully-confined element vs closed-form stiffness
    fixed, driven = [], []
    for iz in (0, 1):
        for iy in (0, 1):
            for ix in (0, 1):
                node = node_id(ix, iy, iz, 1, 1)
                fixed += [3 * node, 3 * node + 1]
                (fixed if iz == 0 else driven).append(3 * node + 2)
    bc = BoundaryCondition(fixed_dofs=np.array(fixed), driven_dofs=np.array(driven))
    g1 = uniform_grid((1, 1, 1), rho)
    curve = solve(g1, elastic, bc, SolveControl(increment=0.003, max_increments=1))
    e = elastic.modulus(ash)
    k_ref = e * (1 - 0.3) / ((1 + 0.3) * (1 - 0.6)) * 9.0 / 3.0
    k = curve.force[1] / curve.displacement[1]
    assert abs(k - k_ref) / k_ref < 0.005

    # (b) perfectly plastic column plateau = A * sigma_y
    gc = uniform_grid((1, 1, 15), rho)
    plastic = MaterialModel(f_soft=0.0, eps_plateau=10.0)
    pc = solve(gc, plastic, stance_bc(gc.dims),
               SolveControl(increment=0.02, max_increments=40, stop_fraction=0.01))
    plateau = pc.force[-1]
    f_ref = 9.0 * plastic.yield_stress(ash)
    assert abs(plateau - f_ref) / f_ref < 0.01

    # (c) yield detector fires at cluster 15, not at 14
    def hist(top):
        n = 4
        return ForceDisplacementCurve(
            displacement=np.arange(n) * 0.1,
            force=np.arange(n) * 100.0,
            cluster_sizes=np.array([0, 5, top, top]))

    assert detect_yield_load(hist(YIELD_CLUSTER_SIZE)) == 200.0
    with pytest.raises(NoYieldDetected):
        detect_yield_load(hist(YIELD_CLUSTER_SIZE - 1))

    # (d) elastic energy = F*d/2
    ge = uniform_grid((2, 2, 6), rho)
    ec = solve(ge, elastic, stance_bc(ge.dims),
               SolveControl(increment=0.02, max_increments=6))
    energy = energy_to_failure(ec)
    half_fd = 0.5 * ec.force[-1] * ec.displacement[-1]
    assert abs(energy - half_fd) / half_fd < 1e-6
    report(3, f"stiffness err {abs(k - k_ref) / k_ref:.2e}, plateau err "
              f"{abs(plateau - f_ref) / f_ref:.2e}, cluster gate 15/14, "
              f"energy err {abs(energy - half_fd) / half_fd:.2e}")


def test_criterion_4_pca_and_auc_oracles():
    rng = np.random.default_rng(4)

    # 2x2 correlation eigenvalues are 1 +/- rho
    rho = 0.6
    z = rng.normal(size=(3000, 2))
    x = np.column_stack([z[:, 0], z[:, 1]])
    x = (x - x.mean(0)) / x.std(0, ddof=1)
    x = x @ np.linalg.inv(np.linalg.cholesky(np.corrcoef(x, rowvar=False)).T)
    x /= x.std(0, ddof=1)
    x[:, 1] = rho * x[:, 0] + np.sqrt(1 - rho ** 2) * x[:, 1]
    model = fit_pca(x, column_names=("a", "b"))
    assert np.allclose(sorted(model.eigenvalues), [1 - rho, 1 + rho], atol=1e-10)

    # full-loadings reconstruction of the correlation matrix
    y6 = rng.normal(size=(300, 6)) @ rng.normal(size=(6, 6))
    m6 = fit_pca(y6, column_names=tuple("abcdef"))
    z6 = (y6 - m6.standardization.mean) / m6.standardization.sd
    corr = (z6.T @ z6) / (z6.shape[0] - 1)
    recon = m6.loadings @ np.diag(m6.eigenvalues) @ m6.loadings.T
    assert np.abs(recon - corr).max() < 1e-8

    # AUC equals pair enumeration on 50 tied fixtures
    for _ in range(50):
        n = int(rng.integers(10, 200))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.normal(size=n) + y, 1)
        pos, neg = s[y == 1], s[y == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        ref = (wins + 0.5 * ties) / (pos.size * neg.size)
        assert abs(auc_mann_whitney(s, y) - ref) < 1e-12
    report(4, "eigenvalues 1±rho, reconstruction < 1e-8, "
              "50/50 AUC fixtures exact")


def test_criterion_5_logistic_and_ols_oracles():
    from scipy.optimize import minimize
    rng = np.random.default_rng(5)

    # intercept-only logistic = logit of prevalence
    y = np.array([1] * 7 + [0] * 13)
    fit = fit_logistic(y, np.zeros((20, 0)))
    assert abs(fit.intercept - np.log(7 / 13)) < 1e-10

    # IRLS vs brute-force likelihood maximization on n=20 fixtures
    checked = 0
    worst = 0.0
    while checked < 3:
        x = rng.normal(size=(20, 2))
        eta = 0.2 + 0.9 * x[:, 0] - 0.4 * x[:, 1]
        yy = (rng.random(20) < 1 / (1 + np.exp(-eta))).astype(int)
        if yy.min() == yy.max():
            continue
        f = fit_logistic(yy, x)
        if f.penalized:
            continue
        xd = np.column_stack([np.ones(20), x])

        def nll(beta):
            e = xd @ beta
            return np.sum(np.logaddexp(0.0, e) - yy * e)

        ref = minimize(nll, np.zeros(3), method="BFGS",
                       options={"gtol": 1e-10}).x
        worst = max(worst, float(np.abs(f.beta - ref).max()))
        checked += 1
    assert worst < 1e-6

    # OLS vs normal-equations oracle
    xo = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
    yo = xo @ [1.0, -2.0, 0.5, 3.0] + rng.normal(scale=0.2, size=40)
    fo = fit_linear_model(yo, xo, ("i", "a", "b", "c"))
    ref = np.linalg.solve(xo.T @ xo, xo.T @ yo)
    assert np.abs(fo.coef - ref).max() < 1e-8
    report(5, f"logistic MLE max err {worst:.1e}, OLS exact")


def test_criterion_6_delong_correctness():
    rng = np.random.default_rng(6)
    n_pos, n_neg = 8, 12
    n = n_pos + n_neg
    y = np.array([1] * n_pos + [0] * n_neg)

    s = rng.normal(size=40)
    yy = rng.integers(0, 2, size=40)
    yy[:2] = [0, 1]
    same = delong_compare(s, s.copy(), yy)
    assert same.p == 0.5 and same.z == 0.0

    a = rng.normal(size=n) + 1.0 * y
    b = rng.normal(size=n) + 0.3 * y
    r1 = delong_compare(a, b, y)
    r2 = delong_compare(np.exp(a), 5 * b + 2, y)
    assert r1.p == r2.p and r1.z == r2.z

    # jackknife variance
    def delta(idx):
        return (auc_mann_whitney(a[idx], y[idx])
                - auc_mann_whitney(b[idx], y[idx]))

    thetas = np.array([delta(np.delete(np.arange(n), i)) for i in range(n)])
    var_jack = (n - 1) / n * ((thetas - thetas.mean()) ** 2).sum()
    assert abs(r1.var_diff - var_jack) / var_jack < 0.10

    # 1e5-draw stratified bootstrap p
    draws = 100_000
    pi = rng.integers(0, n_pos, size=(draws, n_pos))
    ni = rng.integers(0, n_neg, size=(draws, n_neg)) + n_pos

    def boot_auc(v):
        p, q = v[pi], v[ni]
        wins = (p[:, :, None] > q[:, None, :]).sum(axis=(1, 2))
        ties = (p[:, :, None] == q[:, None, :]).sum(axis=(1, 2))
        return (wins + 0.5 * ties) / (n_pos * n_neg)

    p_boot = np.mean(boot_auc(a) - boot_auc(b) <= 0)
    assert abs(r1.p - p_boot) < 0.02
    report(6, f"var vs jackknife {abs(r1.var_diff - var_jack) / var_jack:.3f}, "
              f"p {r1.p:.4f} vs bootstrap {p_boot:.4f}")


def test_criterion_7_synthetic_calibration(cohort):
    spec = sized_spec({g: 10_000 for g in GROUPS})
    big = generate_cohort(spec, seed=1)
    worst_mean = worst_sd = 0.0
    for cell in calibration_check(big, spec):
        grp = spec.groups[cell.group]["variables"][cell.variable]
        sex, fx, vals = big.columns(["sex", "fx", cell.variable]).T
        by_group = ((sex == (1.0 if cell.group.startswith("male") else 0.0))
                    & (fx == (1 if cell.group.endswith("fx") else 0)))
        vals = vals[by_group]
        worst_mean = max(worst_mean, abs(vals.mean() - grp["mean"]) / grp["mean"])
        worst_sd = max(worst_sd, abs(vals.std(ddof=1) / grp["sd"] - 1.0))
    assert worst_mean < 0.03
    assert worst_sd < 0.06

    fe = fe9_matrix(cohort)
    pca = fit_pca(fe)
    share = float(pca.variance_shares[0])
    assert 0.73 <= share <= 0.93
    retained, _ = select_significant_pcs(pc_scores(pca, fe)[:, :4],
                                         cohort.labels())
    assert 0 in retained
    report(7, f"worst mean err {worst_mean:.3f}, worst SD err {worst_sd:.3f}, "
              f"PC1 share {share:.4f}, PC1 retained")


def test_criterion_8_direction_preserving_replication(cohort):
    male = {name: feature_columns(name, "male") for name in ("PC1_ABMD_COV", "ABMD_COV")}
    specs = [ClassifierSpec("logistic"), ClassifierSpec("pls")]

    # 25-repeat LGOCV in the male stratum, both classifiers
    cv = CvConfig(repeats=25, seed=mix_seed(42, 1, 0))
    lgocv = run_lgocv(cohort.stratum("male"), {"PC1_ABMD_COV": male["PC1_ABMD_COV"]},
                      specs, cv)
    for aucs in lgocv.values():
        assert aucs.shape == (25,)

    # (a) 1000 shared resamples: PC1+aBMD+cov beats aBMD+cov (male stratum)
    rs = ResampleConfig(resamples=1000, seed=mix_seed(42, 2, 0))
    res = run_resample_comparison(cohort.stratum("male"), male, specs, rs)
    key = "PC1_ABMD_COV|logistic>ABMD_COV|logistic"
    t_log = res.comparisons[key]
    mean_pc1 = res.cells["PC1_ABMD_COV|logistic"].mean()
    mean_ab = res.cells["ABMD_COV|logistic"].mean()
    assert mean_pc1 > mean_ab
    assert t_log.p < 0.05
    t_pls = res.comparisons["PC1_ABMD_COV|pls>ABMD_COV|pls"]
    assert t_pls.p < 0.05

    # (b) model beats simulated FRAX by DeLong on the whole sample
    tr, _ = stratified_split_indices(cohort.labels(), 0.8, seed=mix_seed(42, 0, 0))
    scores, _, _ = fit_and_score(cohort, tr, np.arange(len(cohort)),
                                 feature_columns("PC1_ABMD_COV", "all"),
                                 ClassifierSpec("logistic"))
    dl, _, _ = compare_with_frax(cohort, scores)
    assert dl.auc_a > dl.auc_b
    assert dl.p < 0.05
    report(8, f"male AUC {mean_pc1:.3f} vs {mean_ab:.3f} "
              f"(logistic p {t_log.p:.2e}, pls p {t_pls.p:.2e}); "
              f"FRAX {dl.auc_a:.3f} vs {dl.auc_b:.3f}, DeLong p {dl.p:.2e}")


def test_criterion_9_thread_determinism(tmp_path, cohort):
    from femrisk.cli import dispatch
    from femrisk.datamodel import save_cohort
    csv = tmp_path / "cohort.csv"
    save_cohort(cohort, csv)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"report_{threads}.json"
        rc = dispatch(["evaluate", "--cohort", str(csv), "--out", str(out),
                       "--stratum", "male", "--seed", "42",
                       "--resamples", "200", "--repeats", "10",
                       "--threads", threads])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(9, "--threads 1 and --threads 8 reports byte-identical")
