"""Acceptance gates. Each test prints one PASS/FAIL line for its criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as the
criteria execute.
"""
import math
import random
import time

import numpy as np
import pytest

import hra_forge as hf
from conftest import planted_observations
from hra_forge.cli import main as cli_main
from hra_forge.psf import PSF_ORDER, PsfId


def report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_composite_algebra():
    rng = random.Random(13)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = rng.uniform(1e-9, 1.0)
        t = rng.uniform(1e-6, 1e4)
        direct = (n * t) / (n * (t - 1.0) + 1.0)
        worst = max(worst, abs(float(hf.composite_hep(n, t)) - direct))
    identity_exact = all(
        float(hf.composite_hep(n, 1.0)) == n for n in (0.0, 0.25, 0.5, 0.999, 1.0)
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (composite algebra)",
        worst <= 1e-12 and identity_exact and elapsed < 1.0,
        f"max |diff| {worst:.2e} over 1000 pairs, identity exact, {elapsed:.2f}s",
    )


def test_criterion_2_reference_fit_mse():
    observed, predicted = hf.bundled_reference_fit()
    mse = hf.metrics(np.array(predicted), np.array(observed)).mse
    report(
        "criterion 2 (reference fit MSE)",
        abs(mse - 5.24e-4) <= 0.01e-4,
        f"MSE {mse:.6e} vs 5.24E-04 +/- 0.01E-04",
    )


@pytest.fixture(scope="module")
def reference_anova():
    rows = hf.bundled_table4()
    spec = hf.parse_model_spec(
        "1, A, B, C, D, F, G, H, AD, AF, BD, BF, BG, DF, C^2, D^2; power=3"
    )
    coding = hf.infer_coding(rows)
    fit_result = hf.fit(rows, spec, coding)
    return rows, fit_result, hf.anova(fit_result, rows)


def test_criterion_3_anova_reproduction(reference_anova):
    t0 = time.perf_counter()
    rows, fit_result, table = reference_anova
    dfs = (
        table["Model"].df,
        table["Residual"].df,
        table["Lack of Fit"].df,
        table["Pure Error"].df,
        table["Cor Total"].df,
    )
    model_f = table["Model"].f
    lof_f = table["Lack of Fit"].f
    ss_tot = table["Cor Total"].ss
    ok = (
        dfs == (15, 44, 39, 5, 59)
        and abs(model_f - 4.65) <= 0.05 * 4.65
        and abs(lof_f - 0.38) <= 0.25 * 0.38
        and abs(ss_tot - 1.31493e12) <= 0.01 * 1.31493e12
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (ANOVA reproduction)",
        ok and elapsed < 1.0,
        f"dfs {dfs}, Model F {model_f:.3f}, LOF F {lof_f:.3f}, "
        f"SS(CorTotal) {ss_tot:.5e}, {elapsed:.2f}s",
    )
    # per-term spot checks are logged, not gating (coding ambiguity)
    for source, target in (("H", 18.03), ("AD", 8.04), ("C^2", 8.30)):
        f = table[source].f
        within = abs(f - target) <= 0.15 * target
        print(
            f"[{'PASS' if within else 'NOTE'}] criterion 3 spot check {source}: "
            f"F {f:.3f} vs {target} +/- 15%"
        )


def test_criterion_4_screening():
    spec = hf.parse_model_spec(
        "1, A, B, C, D, F, G, H, AD, AF, BD, BF, BG, DF, C^2, D^2; power=3"
    )
    from_spec = hf.screen_psfs(spec, list(PSF_ORDER))
    only_procedures = [p.name for p in from_spec.eliminated] == ["Procedures"]

    rows = hf.bundled_table4()
    coding = hf.infer_coding(rows)
    letters = sorted(rows[0].levels)
    reduced, _ = hf.backward_eliminate(
        rows, hf.full_quadratic(letters, 3.0), 0.05, coding
    )
    no_e_terms = not any(t.involves("E") for t in reduced.terms)
    report(
        "criterion 4 (screening)",
        only_procedures and no_e_terms,
        f"reference spec eliminates {[p.name for p in from_spec.eliminated]}; "
        f"backward elimination keeps {reduced.to_text()!r}",
    )


def test_paper_verdict_at_alpha_0_10():
    """The paper's verdict on its own design: the trail on table4 at alpha
    0.10 ends at the paper's spec less AF, whose p the paper's model also
    gives AF, and only Procedures is left with no term. Iteration 1 of the
    pipeline screens table4's own responses, so no training is needed."""
    rows = hf.bundled_table4()
    letters = sorted(rows[0].levels)
    reduced, steps = hf.backward_eliminate(
        rows, hf.full_quadratic(letters, 3.0), 0.10, hf.infer_coding(rows)
    )
    eliminated = [p.name for p in hf.screen_psfs(reduced, list(PSF_ORDER)).eliminated]
    last = steps[-1]
    report(
        "paper verdict (table4, alpha 0.10)",
        len(steps) == 30
        and reduced.to_text()
        == "1, A, B, C, D, F, G, H, AD, BD, BF, BG, DF, C^2, D^2; power=3"
        and str(last.term) == "AF"
        and abs(last.p_value - 0.16154) <= 5e-6
        and eliminated == ["Procedures"],
        f"{len(steps)} steps, keeps {reduced.to_text()!r}, last step {last.term} at "
        f"p = {last.p_value:.5f}, eliminates {eliminated}",
    )


def test_criterion_5_trainability():
    t0 = time.perf_counter()
    obs = hf.bundled_table2()
    X, maxima = obs.normalized(PSF_ORDER)
    # seeds 1..10 in one batch; each member is bit for bit train_one's
    # network for its seed
    config = hf.TrainingConfig(seed=1, n_replications=10)
    pred = hf.train_replicated(X, obs.targets(), config, PSF_ORDER, maxima)
    assert pred.dropped_seeds == ()
    assert [m.seed for m in pred.members] == list(range(1, 11))
    losses = [m.final_loss for m in pred.members]
    reached = sum(loss <= 1.0e-3 for loss in losses)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (trainability)",
        reached >= 8 and elapsed < 30.0,
        f"{reached}/10 seeds reached 1e-3 (worst {max(losses):.2e}), {elapsed:.1f}s",
    )


def test_criterion_6_gradient_check():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        n_in = int(rng.integers(1, 6))
        n_hid = int(rng.integers(1, 7))
        n = int(rng.integers(2, 9))
        topo = hf.Topology(n_in, n_hid)
        weights = hf.init_weights(topo, 2000 + trial)
        X = rng.uniform(0.0, 1.0, (n, n_in))
        y = rng.uniform(0.05, 0.95, n)
        from hra_forge.ann import loss_and_gradient

        _, grads = loss_and_gradient(weights, X, y)
        gw1, gb1, gw2, gb2 = grads
        analytic = np.concatenate([gw1.ravel(), gb1, gw2, [gb2]])

        from test_ann import numeric_gradient

        numeric = numeric_gradient(weights, X, y)
        denom = max(float(np.linalg.norm(analytic) + np.linalg.norm(numeric)), 1e-8)
        worst = max(worst, float(np.linalg.norm(analytic - numeric)) / denom)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6 (gradient check)",
        worst <= 1e-6 and elapsed < 5.0,
        f"worst relative error {worst:.2e} over 20 networks, {elapsed:.1f}s",
    )


def test_criterion_7_post_elimination_direction():
    obs = hf.bundled_case_study()
    y = obs.targets()

    def median_loss(active):
        X, maxima = obs.normalized(active)
        # seeds 1..20 in one batch, each member bit for bit train_one's
        config = hf.TrainingConfig(seed=1, n_replications=20)
        pred = hf.train_replicated(X, y, config, active, maxima)
        assert pred.dropped_seeds == ()
        assert [m.seed for m in pred.members] == list(range(1, 21))
        return float(np.median([m.final_loss for m in pred.members]))

    med8 = median_loss(list(PSF_ORDER))
    med7 = median_loss([p for p in PSF_ORDER if p is not PsfId.Procedures])
    report(
        "criterion 7 (post-elimination direction)",
        med7 <= 1.1 * med8,
        f"median MSE 7-input {med7:.3e} vs 8-input {med8:.3e} "
        f"(ratio {med7 / med8:.3f} <= 1.1)",
    )


def test_criterion_8_pipeline_determinism_and_planted_factors(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs=3000\nreplications=3\n")
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["pipeline", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        dirs.append(out)
    capsys.readouterr()
    trees = []
    for root in dirs:
        tree = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                tree[str(path.relative_to(root))] = path.read_bytes()
        trees.append(tree)
    identical = trees[0] == trees[1]

    planted = planted_observations()
    result = hf.run(
        planted,
        hf.PipelineConfig(
            training=hf.TrainingConfig(n_replications=5, max_epochs=20000),
            max_iterations=8,
        ),
    )
    eliminated = set()
    for rec in result.iterations:
        eliminated |= set(rec.screening.eliminated)
    inert = set(PSF_ORDER) - {PsfId.AvailableTime, PsfId.ExperienceTraining}
    planted_ok = inert <= eliminated
    report(
        "criterion 8 (pipeline determinism and termination)",
        identical and planted_ok,
        f"two CLI runs byte-identical over {len(trees[0])} files; planted run "
        f"eliminated {sorted(p.letter for p in eliminated)} in "
        f"{len(result.iterations)} iterations",
    )


def test_criterion_9_ols_oracle():
    from test_rsm import oracle_ols, random_ccd_case

    rng = np.random.default_rng(90125)
    worst_coef = 0.0
    worst_add = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        letters, coding, rows = random_ccd_case(rng, k)
        spec = hf.full_quadratic(letters, 1.0)
        result = hf.fit(rows, spec, coding)
        expected = oracle_ols(rows, spec, coding)
        got = np.array([result.coefficients[t] for t in spec.terms])
        scale = max(float(np.linalg.norm(expected)), 1e-8)
        worst_coef = max(worst_coef, float(np.linalg.norm(got - expected)) / scale)
        table = hf.anova(result, rows)
        ss_tot = table["Cor Total"].ss
        add = abs(table["Model"].ss + table["Residual"].ss - ss_tot) / ss_tot
        worst_add = max(worst_add, add)
    report(
        "criterion 9 (OLS oracle)",
        worst_coef <= 1e-8 and worst_add <= 1e-6,
        f"worst coefficient error {worst_coef:.2e}, worst additivity error "
        f"{worst_add:.2e} over 100 designs",
    )
