"""Response-surface fitting, ANOVA, designs, elimination, screening."""
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import fdtrc

from conftest import count_calls, noise_ccd
from hra_forge import rsm
from hra_forge.dataset import DesignRow, bundled_table4
from hra_forge.errors import InputError, NumericalError, RankDeficientError
from hra_forge.psf import PSF_ORDER, PsfId
from hra_forge.rsm import (
    DEFAULT_AXIAL,
    FactorCoding,
    ModelSpec,
    AnovaRow,
    AnovaTable,
    anova,
    anova_csv_text,
    backward_eliminate,
    evaluate_design,
    fit,
    full_quadratic,
    generate_ccd,
    infer_coding,
    interaction,
    intercept,
    main_effect,
    model_matrix,
    parse_model_spec,
    parse_term,
    predict_response,
    quadratic,
    screen_psfs,
    uniform_coding,
)

PAPER_SPEC = parse_model_spec(
    "1, A, B, C, D, F, G, H, AD, AF, BD, BF, BG, DF, C^2, D^2; power=3"
)


def random_ccd_case(rng, k):
    """A random CCD with random smooth responses, guaranteed full rank."""
    letters = list("ABCDEFGH")[:k]
    centers = rng.uniform(0.3, 0.7, k)
    halves = rng.uniform(0.1, 0.25, k)
    coding = FactorCoding({l: (c, h) for l, c, h in zip(letters, centers, halves)})
    rows = generate_ccd(letters, coding, n_center=4, axial=float(rng.uniform(1.2, 2.0)))
    filled = []
    for row in rows:
        z = [coding.code(l, row.levels[l]) for l in letters]
        base = 20.0 + sum((i + 1.0) * zi for i, zi in enumerate(z))
        base += 0.5 * z[0] * z[-1] + 0.3 * z[0] ** 2
        noise = float(rng.normal(0.0, 0.5))
        filled.append(DesignRow(row.std_order, row.run_order, row.levels, base + noise))
    return letters, coding, filled


def oracle_ols(rows, spec, coding):
    """Brute-force normal-equations solve, independent of the fit path."""
    X = model_matrix(rows, spec, coding)
    y = np.array([r.response for r in rows]) ** spec.response_power
    beta = np.linalg.solve(X.T @ X, X.T @ y)
    return beta


class TestOlsOracle:
    def test_100_random_designs(self):
        rng = np.random.default_rng(90125)
        for case in range(100):
            k = int(rng.integers(2, 5))
            letters, coding, rows = random_ccd_case(rng, k)
            spec = full_quadratic(letters, 1.0)
            result = fit(rows, spec, coding)
            expected = oracle_ols(rows, spec, coding)
            got = np.array([result.coefficients[t] for t in spec.terms])
            scale = max(float(np.linalg.norm(expected)), 1e-8)
            err = float(np.linalg.norm(got - expected)) / scale
            assert err <= 1e-8, f"case {case}: coefficient mismatch {err}"

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(7)
        letters, coding, rows = random_ccd_case(rng, 3)
        spec = full_quadratic(letters, 1.0)
        result = fit(rows, spec, coding)
        X = model_matrix(rows, spec, coding)
        dots = X.T @ result.residuals
        scale = float(np.abs(X).max() * np.abs(result.residuals).max()) or 1.0
        assert float(np.abs(dots).max()) <= 1e-6 * max(scale, 1.0)

    def test_fitted_plus_residual_is_transformed_response(self):
        rng = np.random.default_rng(8)
        letters, coding, rows = random_ccd_case(rng, 2)
        spec = full_quadratic(letters, 3.0)
        result = fit(rows, spec, coding)
        y = np.array([r.response for r in rows]) ** 3.0
        assert np.allclose(result.fitted + result.residuals, y, rtol=1e-12)

    def test_fit_carries_its_matrix_and_transformed_response(self):
        rows = bundled_table4()
        coding = infer_coding(rows)
        result = fit(rows, PAPER_SPEC, coding)
        assert np.array_equal(result.matrix, model_matrix(rows, PAPER_SPEC, coding))
        z = np.array([r.response for r in rows]) ** 3.0
        assert np.array_equal(result.transformed, z)
        assert np.array_equal(result.transformed - result.fitted, result.residuals)

    def test_rank_deficiency_reported_before_overflow(self):
        rows = [
            DesignRow(i + 1, i + 1, {"A": x, "B": x}, 90.0 + i)
            for i, x in enumerate([0.2, 0.8, 0.2, 0.8, 0.5, 0.5, 0.4, 0.6])
        ]
        spec = ModelSpec((intercept(), main_effect("A"), main_effect("B")), 200.0)
        with pytest.raises(RankDeficientError):
            fit(rows, spec, uniform_coding(["A", "B"]))

    @pytest.mark.parametrize("power", [100.0, 200.0])
    def test_overflowing_power_raises(self, power):
        # 200 overflows the transformed response, 100 only its sum of squares
        rows = bundled_table4()
        spec = full_quadratic(sorted(rows[0].levels), power)
        with pytest.raises(NumericalError, match=f"response power {power:g} overflows"):
            fit(rows, spec, infer_coding(rows))


class TestAnova:
    def test_additivity_on_100_fits(self):
        rng = np.random.default_rng(555)
        for case in range(100):
            k = int(rng.integers(2, 4))
            letters, coding, rows = random_ccd_case(rng, k)
            spec = full_quadratic(letters, 1.0)
            table = anova(fit(rows, spec, coding), rows)
            ss_model = table["Model"].ss
            ss_res = table["Residual"].ss
            ss_tot = table["Cor Total"].ss
            assert ss_model + ss_res == pytest.approx(ss_tot, rel=1e-6)
            assert table["Model"].df + table["Residual"].df == table["Cor Total"].df
            if table.lack_of_fit_available:
                lof = table["Lack of Fit"]
                pe = table["Pure Error"]
                assert lof.ss + pe.ss == pytest.approx(ss_res, rel=1e-6, abs=1e-9)
                assert lof.df + pe.df == table["Residual"].df

    def test_coding_invariance(self):
        rows = bundled_table4()
        letters = sorted(rows[0].levels)
        a = fit(rows, PAPER_SPEC, infer_coding(rows))
        b = fit(rows, PAPER_SPEC, FactorCoding({l: (0.5, 0.25) for l in letters}))
        ta, tb = anova(a, rows), anova(b, rows)
        assert a.r2 == pytest.approx(b.r2, rel=1e-9)
        assert ta["Model"].f == pytest.approx(tb["Model"].f, rel=1e-9)
        assert ta["Lack of Fit"].f == pytest.approx(tb["Lack of Fit"].f, rel=1e-9)
        assert ta["Residual"].ss == pytest.approx(tb["Residual"].ss, rel=1e-9)

    def test_reference_table_gates(self):
        rows = bundled_table4()
        result = fit(rows, PAPER_SPEC, infer_coding(rows))
        table = anova(result, rows)
        assert table["Model"].df == 15
        assert table["Residual"].df == 44
        assert table["Lack of Fit"].df == 39
        assert table["Pure Error"].df == 5
        assert table["Cor Total"].df == 59
        assert table["Model"].f == pytest.approx(4.65, rel=0.05)
        assert table["Lack of Fit"].f == pytest.approx(0.38, rel=0.25)
        assert table["Cor Total"].ss == pytest.approx(1.31493e12, rel=0.01)
        assert result.r2 == pytest.approx(8.0622e11 / 1.31493e12, abs=0.02)

    def test_reference_per_term_spot_checks(self):
        rows = bundled_table4()
        table = anova(fit(rows, PAPER_SPEC, infer_coding(rows)), rows)
        assert table["H"].f == pytest.approx(18.03, rel=0.15)
        assert table["AD"].f == pytest.approx(8.04, rel=0.15)
        assert table["C^2"].f == pytest.approx(8.30, rel=0.15)

    def test_hierarchy_example_weak_parent(self):
        rows = bundled_table4()
        table = anova(fit(rows, PAPER_SPEC, infer_coding(rows)), rows)
        assert table["D"].p == pytest.approx(0.7450, abs=0.2)

    def test_no_replicates_drops_lack_of_fit(self):
        rows = [
            DesignRow(i + 1, i + 1, {"A": x}, 1.0 + 2 * x + 0.01 * i)
            for i, x in enumerate([0.1, 0.3, 0.5, 0.7, 0.9])
        ]
        spec = ModelSpec((intercept(), main_effect("A")), 1.0)
        table = anova(fit(rows, spec, FactorCoding({"A": (0.5, 0.4)})), rows)
        assert not table.lack_of_fit_available
        assert [r.source for r in table.rows] == ["Model", "A", "Residual", "Cor Total"]

    def test_zero_pure_error_gives_infinite_lof(self):
        # replicate responses identical -> SS(PE) = 0
        rows = [
            DesignRow(1, 1, {"A": 0.2}, 10.0),
            DesignRow(2, 2, {"A": 0.8}, 30.0),
            DesignRow(3, 3, {"A": 0.4}, 14.0),
            DesignRow(4, 4, {"A": 0.6}, 27.0),
            DesignRow(5, 5, {"A": 0.5}, 20.0),
            DesignRow(6, 6, {"A": 0.5}, 20.0),
        ]
        spec = ModelSpec((intercept(), main_effect("A")), 1.0)
        table = anova(fit(rows, spec, uniform_coding(["A"])), rows)
        assert table["Pure Error"].ss == 0.0
        assert math.isinf(table["Lack of Fit"].f)
        assert table["Lack of Fit"].p == 0.0

    def test_f_test_conventions(self):
        assert rsm._f_test(3.0, 0, 1.5, 10) == (0.0, None, None)
        assert rsm._f_test(3.0, 1, 0.0, 10) == (3.0, math.inf, 0.0)
        ms, f, p = rsm._f_test(6.0, 2, 1.5, 10)
        assert (ms, f) == (3.0, 2.0)
        assert p == pytest.approx(fdtrc(2, 10, 2.0), rel=1e-12, abs=0.0)

    def test_intercept_only_model_row_has_no_test(self):
        coding, rows = noise_ccd(list("ABC"), 0)
        table = anova(fit(rows, ModelSpec((intercept(),), 1.0), coding), rows)
        model = table["Model"]
        assert (model.df, model.ms, model.f, model.p) == (0, 0.0, None, None)
        assert [r.source for r in table.rows] == [
            "Model", "Residual", "Lack of Fit", "Pure Error", "Cor Total",
        ]

    def test_constant_transformed_response_raises(self):
        # every reliability ** 1e-20 rounds to 1.0
        rows = bundled_table4()
        result = fit(rows, full_quadratic(sorted(rows[0].levels), 1e-20), infer_coding(rows))
        assert np.all(result.transformed == 1.0)
        with pytest.raises(NumericalError, match="is constant"):
            anova(result, rows)

    def test_reads_the_fits_arrays(self, monkeypatch):
        rows = bundled_table4()
        result = fit(rows, PAPER_SPEC, infer_coding(rows))
        want = anova(result, rows)
        for name in ("_coded_matrix", "_columns"):
            monkeypatch.setattr(rsm, name, None)
        assert anova(result, rows) == want

    def test_csv_roundtrip_precision(self):
        rows = bundled_table4()
        table = anova(fit(rows, PAPER_SPEC, infer_coding(rows)), rows)
        text = anova_csv_text(table)
        lines = text.splitlines()
        assert lines[0] == "source,sum_of_squares,df,mean_square,f_value,p_value"
        model_line = lines[1].split(",")
        assert model_line[0] == "Model"
        assert float(model_line[1]) == table["Model"].ss


def column_deletion_anova(fit_result, rows):
    """Test oracle: the ANOVA by its definition, one refit per term.

    Each term's SS is the rise in SSE when that column alone is deleted and
    the model refit by ``lstsq``; pure error pools each replicate group's
    deviations from its own mean; p-values are scipy's ``fdtrc``. This is
    how ``anova`` computed the table before it read term SS off one QR
    factorization and its p-values off ``dist.f_sf``.
    """
    spec = fit_result.spec
    X = model_matrix(rows, spec, fit_result.coding)
    z = np.array([r.response for r in rows], dtype=float) ** spec.response_power

    def sse_of(matrix):
        coef, _, _, _ = np.linalg.lstsq(matrix, z, rcond=None)
        resid = z - matrix @ coef
        return float(resid @ resid)

    n = len(rows)
    sse = fit_result.sse
    ss_total = float(((z - z.mean()) ** 2).sum())
    ss_model = float(((fit_result.fitted - z.mean()) ** 2).sum())
    df_model = len(spec.terms) - 1
    df_resid = n - len(spec.terms)
    ms_model = ss_model / df_model
    ms_resid = sse / df_resid
    f_model = ms_model / ms_resid
    out = [
        AnovaRow("Model", ss_model, df_model, ms_model, f_model,
                 float(fdtrc(df_model, df_resid, f_model)))
    ]
    for i, term in enumerate(spec.terms):
        if term == intercept():
            continue
        ss_term = max(sse_of(np.delete(X, i, axis=1)) - sse, 0.0)
        f_term = ss_term / ms_resid
        out.append(AnovaRow(str(term), ss_term, 1, ss_term, f_term,
                            float(fdtrc(1, df_resid, f_term))))
    out.append(AnovaRow("Residual", sse, df_resid, ms_resid, None, None))
    groups = {}
    letters = sorted(rows[0].levels)
    for r, zv in zip(rows, z):
        groups.setdefault(tuple(r.levels[l] for l in letters), []).append(zv)
    df_pe = sum(len(v) - 1 for v in groups.values())
    if df_pe > 0:
        ss_pe = float(
            sum(((np.array(v) - np.mean(v)) ** 2).sum() for v in groups.values())
        )
        ss_lof = max(sse - ss_pe, 0.0)
        df_lof = df_resid - df_pe
        ms_pe = ss_pe / df_pe
        ms_lof = ss_lof / df_lof if df_lof > 0 else 0.0
        f_lof = (ms_lof / ms_pe) if ms_pe > 0 else math.inf
        p_lof = float(fdtrc(df_lof, df_pe, f_lof)) if df_lof > 0 else None
        out.append(AnovaRow("Lack of Fit", ss_lof, df_lof, ms_lof,
                            f_lof if df_lof > 0 else None, p_lof))
        out.append(AnovaRow("Pure Error", ss_pe, df_pe, ms_pe, None, None))
    out.append(AnovaRow("Cor Total", ss_total, n - 1, None, None, None))
    return AnovaTable(tuple(out))


def planted_ab_ccd(rng, k):
    """A CCD on A, B and k - 2 inert factors; A and B carry a quadratic."""
    others = sorted(rng.choice(list("CDEFGH"), size=k - 2, replace=False).tolist())
    letters = ["A", "B"] + others
    coding = uniform_coding(letters)
    rows = generate_ccd(letters, coding, n_center=6)
    filled = []
    for row, e in zip(rows, rng.normal(0.0, 0.3, size=len(rows))):
        a = coding.code("A", row.levels["A"])
        b = coding.code("B", row.levels["B"])
        y = 85.0 + 4.0 * a + 3.0 * b + 1.5 * a * b - 2.0 * a * a + float(e)
        filled.append(replace(row, response=y))
    return sorted(letters), coding, filled


RTOL = 1e-9


def rel_gap(a, b, floor=0.0):
    if a == b:  # also None == None and inf == inf
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), floor)


def assert_matches_column_deletion(table, oracle):
    """Model (but its p), Residual and Cor Total bit for bit; the rest and
    the Model p, which the oracle takes from scipy, within RTOL.

    Term SS and F are compared relative to max(F, 1): a term whose F is far
    below 1 has an SS below the residual mean square, where the oracle's
    difference of two SSEs carries its own rounding of about eps * SSE.
    """
    assert [r.source for r in table.rows] == [r.source for r in oracle.rows]
    ms_resid = oracle["Residual"].ms
    for got, want in zip(table.rows, oracle.rows):
        assert got.df == want.df, got.source
        if got.source in ("Model", "Residual", "Cor Total"):
            assert replace(got, p=None) == replace(want, p=None)
            assert rel_gap(got.p, want.p) <= RTOL, (got, want)
            continue
        term = got.source not in ("Lack of Fit", "Pure Error")
        gaps = (
            rel_gap(got.ss, want.ss, ms_resid if term else 0.0),
            rel_gap(got.ms, want.ms, ms_resid if term else 0.0),
            rel_gap(got.f, want.f, 1.0 if term else 0.0),
            rel_gap(got.p, want.p),
        )
        assert max(gaps) <= RTOL, (got, want, gaps)


class TestQrAnovaMatchesColumnDeletion:
    def test_random_ccds(self):
        rng = np.random.default_rng(4711)
        for case in range(40):
            k = 2 + case % 5
            letters, coding, rows = random_ccd_case(rng, k)
            spec = full_quadratic(letters, 1.0 + 2.0 * (case % 2))
            result = fit(rows, spec, coding)
            assert_matches_column_deletion(
                anova(result, rows), column_deletion_anova(result, rows)
            )

    @pytest.mark.parametrize("power", [1.0, 3.0])
    def test_table4(self, power):
        rows = bundled_table4()
        coding = infer_coding(rows)
        for spec in (full_quadratic(sorted(rows[0].levels), power),
                     replace(PAPER_SPEC, response_power=power)):
            result = fit(rows, spec, coding)
            assert_matches_column_deletion(
                anova(result, rows), column_deletion_anova(result, rows)
            )

    def test_elimination_trail_identical(self):
        rng = np.random.default_rng(1234)
        table4 = bundled_table4()
        cases = [(sorted(table4[0].levels), infer_coding(table4), table4)]
        cases += [planted_ab_ccd(rng, k) for k in (4, 5, 6, 7, 8) for _ in range(2)]
        kept = []
        for letters, coding, rows in cases:
            full = full_quadratic(letters, 3.0)
            reduced, steps = backward_eliminate(rows, full, 0.05, coding)
            want_reduced, want_steps = refit_trail(
                rows, full, 0.05, coding, column_deletion_anova
            )
            assert reduced == want_reduced
            assert [(s.term, s.sse_after) for s in steps] == [
                (s.term, s.sse_after) for s in want_steps
            ]
            for got, want in zip(steps, want_steps):
                assert rel_gap(got.p_value, want.p_value) <= RTOL
            kept.append(set(reduced.letters()))
        assert kept[0] == set("ACDH")
        assert all({"A", "B"} <= letters for letters in kept[1:])


def refit_trail(rows, spec, alpha, coding, table_of=anova):
    """Backward elimination by refitting: one ``fit`` and one ``table_of``
    table per spec, as elimination ran before its passes kept column
    indices of one model matrix. Returns (spec, steps)."""
    current = fit(rows, spec, coding)
    steps = []
    while True:
        table = table_of(current, rows)
        protected = {parent for t in spec.terms for parent in rsm._parents(t)}
        candidates = [
            (term, p)
            for term, p in table.term_pvalues().items()
            if p > alpha and term not in protected
        ]
        if not candidates:
            return spec, tuple(steps)
        term, p = min(candidates, key=lambda tp: (-tp[1], tp[0]))
        spec = spec.without(term)
        current = fit(rows, spec, coding)
        steps.append(rsm.EliminationStep(term, p, current.sse))


class TestColumnIndexTrailMatchesRefitting:
    """Elimination on column indices of one matrix equals refitting each
    spec, bit for bit: the reduced spec and every step, p-values included."""

    @staticmethod
    def cases():
        table4 = bundled_table4()
        letters4, coding4 = sorted(table4[0].levels), infer_coding(table4)
        out = [(letters4, coding4, table4, power, 0.05) for power in (1.0, 3.0)]
        rng = np.random.default_rng(2024)
        for k in (4, 5, 6, 7, 8):
            for _ in range(2):
                letters, coding, rows = planted_ab_ccd(rng, k)
                out.append((letters, coding, rows, 3.0, 0.05))
        for letters, seed in (("ABC", 0), ("ABCDEFGH", 4)):
            coding, rows = noise_ccd(list(letters), seed)
            out.append((list(letters), coding, rows, 1.0, 0.05))
        out.append((letters4, coding4, table4, 3.0, 1.0 - 1e-12))
        return out

    def test_bit_identical(self):
        total_steps = 0
        for letters, coding, rows, power, alpha in self.cases():
            full = full_quadratic(letters, power)
            spec, steps = backward_eliminate(rows, full, alpha, coding)
            want_spec, want_steps = refit_trail(rows, full, alpha, coding)
            assert spec == want_spec
            assert steps == want_steps
            total_steps += len(steps)
        assert total_steps > 100


class TestLeastSquaresCore:
    """``_least_squares`` (one QR of [X | z]) against numpy's SVD solve, and
    the rank rule of ``fit``'s call against ``np.linalg.matrix_rank``."""

    @staticmethod
    def cases():
        table4 = bundled_table4()
        letters4, coding4 = sorted(table4[0].levels), infer_coding(table4)
        out = [(table4, full_quadratic(letters4, p), coding4) for p in (1.0, 3.0)]
        out.append((table4, PAPER_SPEC, coding4))
        rng = np.random.default_rng(1234)
        for k in (4, 5, 6, 7, 8):
            letters, coding, rows = planted_ab_ccd(rng, k)
            out.append((rows, full_quadratic(letters, 3.0), coding))
        return out

    def test_matches_lstsq(self):
        for rows, spec, coding in self.cases():
            X = model_matrix(rows, spec, coding)
            z = np.array([r.response for r in rows]) ** spec.response_power
            coef, r_inv, fitted, residuals = rsm._least_squares(X, z)
            want, (want_sse,), _, _ = np.linalg.lstsq(X, z, rcond=None)
            assert np.abs(coef - want).max() <= 1e-10 * np.abs(want).max()
            assert rel_gap(float(residuals @ residuals), float(want_sse)) <= 1e-10
            assert np.array_equal(fitted, X @ coef)
            assert np.array_equal(residuals, z - fitted)
            # r_inv is R^-1 of X = QR: R^-T R^-1 inverts X'X
            assert np.allclose(r_inv @ r_inv.T @ (X.T @ X), np.eye(X.shape[1]),
                               atol=1e-8)

    @pytest.mark.parametrize("nudge", [0.0, 1e-6])
    def test_rank_rule_is_matrix_rank(self, nudge):
        # table4's full quadratic plus a copy of column A, exact or nudged
        rows = bundled_table4()
        spec = full_quadratic(sorted(rows[0].levels), 3.0)
        X = model_matrix(rows, spec, infer_coding(rows))
        copy = X[:, 1].copy()
        copy[0] += nudge
        X = np.column_stack((X, copy))
        z = np.array([r.response for r in rows]) ** 3.0
        terms = spec.terms + (main_effect("A"),)
        if np.linalg.matrix_rank(X) < X.shape[1]:
            assert nudge == 0.0
            with pytest.raises(RankDeficientError) as err:
                rsm._least_squares(X, z, terms)
            assert err.value.terms == (main_effect("A"), main_effect("A"))
        else:
            assert nudge != 0.0
            rsm._least_squares(X, z, terms)

    def test_one_qr_per_pass_and_no_svd_solve(self, monkeypatch):
        # the full fit plus one solve per pass; anova refactors nothing
        def no_lstsq(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
        rows = bundled_table4()
        coding = infer_coding(rows)
        full = full_quadratic(sorted(rows[0].levels), 3.0)
        calls = count_calls(monkeypatch, ("_least_squares", "_term_tests"), rsm)
        reduced, steps = backward_eliminate(rows, full, 0.05, coding)
        assert len(steps) == 37
        assert calls == {"_least_squares": len(steps) + 1,
                         "_term_tests": len(steps) + 1}
        anova(fit(rows, reduced, coding), rows)
        assert calls == {"_least_squares": len(steps) + 2,
                         "_term_tests": len(steps) + 2}


def scipy_passes(rows, spec, coding):
    """The passes of backward elimination on scipy's F tail, run until no
    term is removable: each pass's spec and the (term, p) of its removable
    terms, with p from ``fdtrc`` on ``anova``'s F. Each pass drops the term
    with the largest p (ties by canonical order), so a run at any alpha is
    a prefix of these passes."""
    passes = []
    while True:
        table = anova(fit(rows, spec, coding), rows)
        df_resid = table["Residual"].df
        protected = {parent for t in spec.terms for parent in rsm._parents(t)}
        removable = [
            (term, float(fdtrc(1, df_resid, table[str(term)].f)))
            for term in spec.terms
            if term != intercept() and term not in protected
        ]
        passes.append((spec, removable))
        if not removable:
            return passes
        spec = spec.without(min(removable, key=lambda tp: (-tp[1], tp[0]))[0])


def scipy_trail(passes, alpha):
    """Elimination at alpha by the largest-p rule: (spec, [(term, p)], every
    p compared with alpha)."""
    steps, compared = [], []
    for spec, removable in passes:
        compared += [p for _, p in removable]
        candidates = [(term, p) for term, p in removable if p > alpha]
        if not candidates:
            return spec, steps, compared
        steps.append(min(candidates, key=lambda tp: (-tp[1], tp[0])))


class TestEliminationMatchesScipyOracle:
    """The smallest-F rule with one ``f_sf`` p-value per step gives the
    trails of the largest-p rule on scipy's p-values: same terms in the
    same order, so the same reduced specs and screening verdicts."""

    def test_trails_identical(self):
        table4 = bundled_table4()
        cases = [(sorted(table4[0].levels), infer_coding(table4), table4, p)
                 for p in (1.0, 3.0)]
        rng = np.random.default_rng(77)
        cases += [(*planted_ab_ccd(rng, k), 3.0) for k in (4, 5, 6, 7, 8) for _ in range(2)]
        rng = np.random.default_rng(78)
        cases += [(*random_ccd_case(rng, 2 + i % 5), 1.0 + 2.0 * (i % 2)) for i in range(40)]
        closest = math.inf
        for letters, coding, rows, power in cases:
            full = full_quadratic(letters, power)
            passes = scipy_passes(rows, full, coding)
            for alpha in (0.01, 0.05, 0.10):
                reduced, steps = backward_eliminate(rows, full, alpha, coding)
                want_reduced, want_steps, compared = scipy_trail(passes, alpha)
                assert reduced == want_reduced
                assert [s.term for s in steps] == [term for term, _ in want_steps]
                for step, (_, p) in zip(steps, want_steps):
                    assert step.p_value == pytest.approx(p, rel=1e-12, abs=0.0)
                closest = min(closest, *(abs(p - alpha) / alpha for p in compared))
        # no compared p lies within the two tails' gap of alpha, where the
        # rules could part (measured: 0.0500050 on table4 at power 3, 1e-4 off)
        assert closest > 1e-9


class TestImportFootprint:
    def test_anova_does_not_import_scipy_linalg(self):
        # scipy.linalg alone adds about 14% to the peak RSS of a screening run
        code = (
            "import sys, hra_forge\n"
            "from hra_forge import rsm\n"
            "rows = hra_forge.bundled_table4()\n"
            "spec = rsm.full_quadratic(sorted(rows[0].levels), 3.0)\n"
            "rsm.anova(rsm.fit(rows, spec, rsm.infer_coding(rows)), rows)\n"
            "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rsm.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr

    def test_cli_loads_no_scipy(self, tmp_path):
        # the runtime needs numpy only: scipy.special alone was about 26 MB
        # and 0.27 s of every process
        res = tmp_path / "res"
        sub = res / "iterations" / "01"
        sub.mkdir(parents=True)
        (res / "summary.csv").write_text("iteration\n1\n")
        (sub / "metrics.csv").write_text(
            "id,observed_hep,predicted_hep,squared_error\n"
            "I1,0.1,0.12,0.0004\nI2,0.2,0.18,0.0004\nI3,0.3,0.31,0.0001\n"
        )
        (sub / "rsm_fit.csv").write_text(
            "std,run,response,transformed,fitted,residual,predicted_response\n"
            "1,1,50,125000,124000,1000,49.9\n2,2,60,216000,217000,-1000,60.1\n"
            "3,3,55,166375,166000,375,55.0\n"
        )
        code = (
            "import contextlib, io, sys\n"
            "import hra_forge, hra_forge.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['anova'], ['screen'], ['report', '--result', sys.argv[1]]):\n"
            "        assert hra_forge.cli.main(argv) == 0, argv\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "assert not loaded, loaded\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(rsm.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code, str(res)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list(res.glob("*.svg"))) == 4


class TestTermsAndSpecs:
    def test_parse_and_format(self):
        assert str(parse_term("1")) == "1"
        assert str(parse_term(" AD ")) == "AD"
        assert str(parse_term("DA")) == "AD"
        assert str(parse_term("C^2")) == "C^2"

    def test_reject_bad_tokens(self):
        for bad in ("", "a", "Z", "A^3", "AA", "ABC", "A*B"):
            with pytest.raises(InputError):
                parse_term(bad)

    def test_spec_roundtrip(self):
        text = PAPER_SPEC.to_text()
        again = parse_model_spec(text)
        assert again == PAPER_SPEC
        assert again.response_power == 3.0

    def test_spec_requires_intercept(self):
        with pytest.raises(InputError):
            ModelSpec((main_effect("A"),), 1.0)

    def test_spec_enforces_hierarchy(self):
        with pytest.raises(InputError, match="AD requires main effect A$"):
            ModelSpec((intercept(), interaction("A", "D")), 1.0)
        with pytest.raises(InputError, match="AD requires main effect A$"):
            ModelSpec((intercept(), main_effect("D"), interaction("A", "D")), 1.0)
        with pytest.raises(InputError, match=r"C\^2 requires main effect C$"):
            ModelSpec((intercept(), quadratic("C")), 1.0)
        ModelSpec(
            (intercept(), main_effect("A"), main_effect("D"), interaction("A", "D")),
            1.0,
        )

    def test_parents(self):
        assert rsm._parents(interaction("D", "A")) == (main_effect("A"), main_effect("D"))
        assert rsm._parents(quadratic("C")) == (main_effect("C"),)
        assert rsm._parents(main_effect("C")) == rsm._parents(intercept()) == ()

    def test_spec_orders_canonically(self):
        spec = ModelSpec(
            (
                quadratic("C"),
                main_effect("C"),
                intercept(),
                main_effect("A"),
            ),
            2.0,
        )
        assert [str(t) for t in spec.terms] == ["1", "A", "C", "C^2"]

    def test_full_quadratic_term_count(self):
        for k in range(2, 9):
            letters = list("ABCDEFGH")[:k]
            spec = full_quadratic(letters, 3.0)
            assert len(spec.terms) == 1 + 2 * k + k * (k - 1) // 2

    def test_without_preserves_hierarchy_rules(self):
        spec = full_quadratic(["A", "B"], 1.0)
        smaller = spec.without(parse_term("AB"))
        assert parse_term("AB") not in smaller.terms
        assert parse_term("A") in smaller.terms


class TestCoding:
    def test_uniform_axial_inversion(self):
        coding = uniform_coding(["A"])
        assert coding.decode("A", 1.0) == pytest.approx(0.8)
        assert coding.decode("A", -1.0) == pytest.approx(0.2)
        assert coding.decode("A", DEFAULT_AXIAL) == pytest.approx(1.0)
        assert coding.decode("A", -DEFAULT_AXIAL) == pytest.approx(0.0)
        assert coding.code("A", coding.decode("A", 0.731)) == pytest.approx(0.731)

    def test_infer_on_reference_design(self):
        rows = bundled_table4()
        coding = infer_coding(rows)
        letters = sorted(rows[0].levels)
        for letter in letters:
            levels = sorted({r.levels[letter] for r in rows})
            assert len(levels) == 5
            # the replicate level is the center; the factorial levels span
            # exactly two coded units around it (printed levels are rounded,
            # so +/-1 holds only approximately)
            assert coding.code(letter, levels[2]) == pytest.approx(0.0)
            lo = coding.code(letter, levels[1])
            hi = coding.code(letter, levels[3])
            assert hi - lo == pytest.approx(2.0)
            assert abs(hi + lo) < 0.1

    def test_infer_requires_replicates(self):
        rows = [DesignRow(i + 1, i + 1, {"A": 0.1 * i}, 1.0) for i in range(5)]
        with pytest.raises(InputError):
            infer_coding(rows)


class TestCcd:
    def expected_rows(self, k, n_center):
        factorial = {2: 4, 3: 8, 4: 16, 5: 16, 6: 32, 7: 64, 8: 64}[k]
        return factorial + 2 * k + n_center

    def test_row_counts(self):
        for k in range(2, 9):
            letters = list("ABCDEFGH")[:k]
            rows = generate_ccd(letters, uniform_coding(letters), 6)
            assert len(rows) == self.expected_rows(k, 6)
            assert [r.std_order for r in rows] == list(range(1, len(rows) + 1))
            assert [r.run_order for r in rows] == list(range(1, len(rows) + 1))
            assert all(r.response is None for r in rows)

    def test_point_classes(self):
        letters = ["A", "B", "C"]
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding, 4, axial=DEFAULT_AXIAL)
        coded = [
            tuple(round(coding.code(l, r.levels[l]), 9) for l in letters) for r in rows
        ]
        factorial = [p for p in coded if all(abs(z) == 1.0 for z in p)]
        axial = [p for p in coded if sorted(map(abs, p)) == [0.0, 0.0, round(DEFAULT_AXIAL, 9)]]
        center = [p for p in coded if p == (0.0, 0.0, 0.0)]
        assert len(factorial) == 8
        assert len(axial) == 6
        assert len(center) == 4

    def test_axial_levels_span_unit_interval(self):
        letters = list("ABCDEFGH")
        rows = generate_ccd(letters, uniform_coding(letters), 6)
        values = sorted({v for r in rows for v in r.levels.values()})
        assert values == pytest.approx([0.0, 0.2, 0.5, 0.8, 1.0])

    def test_half_fraction_generators(self):
        # k=8 uses a quarter fraction: G = ABCD and H = ABEF on the
        # factorial portion
        letters = list("ABCDEFGH")
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding, 2)
        factorial = rows[:64]
        for row in factorial:
            z = {l: coding.code(l, row.levels[l]) for l in letters}
            assert z["G"] == pytest.approx(z["A"] * z["B"] * z["C"] * z["D"])
            assert z["H"] == pytest.approx(z["A"] * z["B"] * z["E"] * z["F"])

    def test_full_quadratic_estimable_for_all_k(self):
        rng = np.random.default_rng(31)
        for k in range(2, 9):
            letters = list("ABCDEFGH")[:k]
            coding = uniform_coding(letters)
            rows = generate_ccd(letters, coding, 6)
            filled = [
                DesignRow(r.std_order, r.run_order, r.levels, float(rng.uniform(10, 90)))
                for r in rows
            ]
            fit(filled, full_quadratic(letters, 1.0), coding)  # must not raise

    def test_input_validation(self):
        with pytest.raises(InputError):
            generate_ccd(["A"], uniform_coding(["A"]), 2)
        with pytest.raises(InputError):
            generate_ccd(["A", "A"], uniform_coding(["A"]), 2)
        letters = list("ABCDEFGH") + ["I"]
        with pytest.raises(InputError):
            generate_ccd(letters, uniform_coding(list("ABCDEFGH")), 2)

    def test_center_cap_checked_before_any_work(self, monkeypatch):
        # only cap + 1 is run: rejection must come before a row is built
        monkeypatch.setattr(rsm, "_fraction_signs", None)
        with pytest.raises(InputError, match=f"--center must be at most {rsm.MAX_CENTER_RUNS} "):
            generate_ccd(["A", "B"], uniform_coding(["A", "B"]), rsm.MAX_CENTER_RUNS + 1)


class TestBackwardElimination:
    def make_single_effect_rows(self, seed=19):
        rng = np.random.default_rng(seed)
        letters = ["A", "B", "C"]
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding, 5)
        filled = []
        for row in rows:
            z = coding.code("A", row.levels["A"])
            y = 40.0 + 8.0 * z + float(rng.normal(0, 0.4))
            filled.append(DesignRow(row.std_order, row.run_order, row.levels, y))
        return letters, coding, filled

    def test_single_strong_main_effect_survives_alone(self):
        letters, coding, rows = self.make_single_effect_rows()
        reduced, steps = backward_eliminate(rows, full_quadratic(letters, 1.0), 0.05, coding)
        assert [str(t) for t in reduced.terms] == ["1", "A"]
        assert len(steps) == len(full_quadratic(letters, 1.0).terms) - 2

    def test_alpha_near_one_removes_nothing(self):
        letters, coding, rows = self.make_single_effect_rows()
        full = full_quadratic(letters, 1.0)
        reduced, steps = backward_eliminate(rows, full, 1.0 - 1e-12, coding)
        assert reduced == full
        assert steps == ()

    def test_steps_record_decreasing_model(self):
        letters, coding, rows = self.make_single_effect_rows()
        reduced, steps = backward_eliminate(rows, full_quadratic(letters, 1.0), 0.05, coding)
        for step in steps:
            assert step.p_value > 0.05
            assert step.sse_after >= 0.0

    def test_hierarchy_keeps_weak_parent(self):
        rng = np.random.default_rng(91)
        letters = ["A", "D"]
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding, 5)
        filled = []
        for row in rows:
            za = coding.code("A", row.levels["A"])
            zd = coding.code("D", row.levels["D"])
            y = 30.0 + 5.0 * za + 4.0 * za * zd + float(rng.normal(0, 0.3))
            filled.append(DesignRow(row.std_order, row.run_order, row.levels, y))
        reduced, steps = backward_eliminate(filled, full_quadratic(letters, 1.0), 0.05, coding)
        names = [str(t) for t in reduced.terms]
        assert "AD" in names
        assert "D" in names  # protected parent, regardless of its own p
        removed = [str(s.term) for s in steps]
        assert "D" not in removed

    def test_reference_design_survivors(self):
        rows = bundled_table4()
        coding = infer_coding(rows)
        letters = sorted(rows[0].levels)
        reduced, _ = backward_eliminate(rows, full_quadratic(letters, 3.0), 0.05, coding)
        assert [str(t) for t in reduced.terms] == [
            "1", "A", "C", "D", "H", "AD", "C^2", "D^2",
        ]

    def test_each_spec_fit_once(self, monkeypatch):
        # one fit of the full spec per trail, and no table: the caller
        # tabulates the reduced spec
        rows = bundled_table4()
        coding = infer_coding(rows)
        full = full_quadratic(sorted(rows[0].levels), 3.0)
        real_fit = rsm.fit
        calls = count_calls(monkeypatch, ("fit", "anova"), rsm)
        _, steps = backward_eliminate(rows, full, 0.05, coding)
        assert len(steps) == 37
        assert calls == {"fit": 1, "anova": 0}
        # sse_after is the SSE of the spec left after removing the step's term
        spec = full
        for step in steps:
            spec = spec.without(step.term)
            assert step.sse_after == real_fit(rows, spec, coding).sse

    def test_exact_f_tie_drops_the_canonical_first_term(self, monkeypatch):
        rows = bundled_table4()
        full = full_quadratic(sorted(rows[0].levels), 3.0)
        first, last = interaction("A", "B"), quadratic("H")
        real = rsm._term_tests

        def tied(matrix, coef, ms_error):
            # the full model's pass: two removable terms tie at the smallest F
            ss, f = real(matrix, coef, ms_error)
            if matrix.shape[1] == len(full.terms):
                f[[full.terms.index(first), full.terms.index(last)]] = 0.0
            return ss, f

        monkeypatch.setattr(rsm, "_term_tests", tied)
        _, steps = backward_eliminate(rows, full, 0.05, infer_coding(rows))
        assert steps[0].term == first

    def test_all_inert_design_reduces_to_intercept(self):
        coding, rows = noise_ccd(list("ABC"), 0)
        full = full_quadratic(list("ABC"), 1.0)
        reduced, steps = backward_eliminate(rows, full, 0.05, coding)
        assert reduced == ModelSpec((intercept(),), 1.0)
        assert len(steps) == len(full.terms) - 1

    def test_alpha_validation(self):
        letters, coding, rows = self.make_single_effect_rows()
        for alpha in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InputError):
                backward_eliminate(rows, full_quadratic(letters, 1.0), alpha, coding)


class TestScreening:
    def test_reference_spec_eliminates_procedures_only(self):
        report = screen_psfs(PAPER_SPEC, list(PSF_ORDER))
        assert [p.name for p in report.eliminated] == ["Procedures"]
        assert len(report.retained) == 7

    def test_intercept_only_eliminates_everything(self):
        spec = ModelSpec((intercept(),), 3.0)
        report = screen_psfs(spec, list(PSF_ORDER))
        assert list(report.eliminated) == list(PSF_ORDER)
        assert report.retained == ()

    def test_full_quadratic_eliminates_nothing(self):
        spec = full_quadratic([p.letter for p in PSF_ORDER], 3.0)
        report = screen_psfs(spec, list(PSF_ORDER))
        assert report.eliminated == ()

    def test_respects_active_subset(self):
        spec = ModelSpec((intercept(), main_effect("A")), 1.0)
        active = [PsfId.AvailableTime, PsfId.Complexity]
        report = screen_psfs(spec, active)
        assert [p.letter for p in report.retained] == ["A"]
        assert [p.letter for p in report.eliminated] == ["C"]


class TestPrediction:
    def test_design_rows_recover_fitted_values(self):
        rows = bundled_table4()
        coding = infer_coding(rows)
        result = fit(rows, PAPER_SPEC, coding)
        for row, fitted in list(zip(rows, result.fitted))[:10]:
            pred = predict_response(result, row.levels)
            expected = max(fitted, 0.0) ** (1.0 / 3.0)
            assert pred.value == pytest.approx(min(expected, 100.0), rel=1e-9)
            assert not pred.extrapolated

    def test_synthetic_exact_recovery_off_design(self):
        letters = ["A", "B"]
        coding = uniform_coding(letters)
        rows = generate_ccd(letters, coding, 3)

        def truth(a, b):
            za = coding.code("A", a)
            zb = coding.code("B", b)
            return 50.0 + 6.0 * za - 3.0 * zb + 2.0 * za * zb + 1.5 * zb * zb

        filled = [
            DesignRow(
                r.std_order,
                r.run_order,
                r.levels,
                truth(r.levels["A"], r.levels["B"]),
            )
            for r in rows
        ]
        result = fit(filled, full_quadratic(letters, 1.0), coding)
        for a, b in [(0.33, 0.61), (0.5, 0.27), (0.71, 0.44)]:
            pred = predict_response(result, {"A": a, "B": b})
            assert pred.value == pytest.approx(truth(a, b), abs=1e-6)
            assert not pred.extrapolated

    def test_center_prediction_in_percent_range(self):
        rows = bundled_table4()
        coding = infer_coding(rows)
        result = fit(rows, PAPER_SPEC, coding)
        center = {l: coding.decode(l, 0.0) for l in sorted(rows[0].levels)}
        pred = predict_response(result, center)
        assert 0.0 <= pred.value <= 100.0

    def test_negative_transform_clamps_to_zero(self):
        rows = [
            DesignRow(1, 1, {"A": 0.2}, 30.0),
            DesignRow(2, 2, {"A": 0.8}, 1.0),
            DesignRow(3, 3, {"A": 0.4}, 20.0),
            DesignRow(4, 4, {"A": 0.6}, 11.0),
            DesignRow(5, 5, {"A": 0.5}, 15.0),
            DesignRow(6, 6, {"A": 0.5}, 15.2),
        ]
        spec = ModelSpec((intercept(), main_effect("A")), 1.0)
        result = fit(rows, spec, uniform_coding(["A"]))
        pred = predict_response(result, {"A": 2.0})
        assert pred.value == 0.0
        assert pred.clamped
        assert pred.extrapolated

    def test_missing_factor_rejected(self):
        rows = bundled_table4()
        result = fit(rows, PAPER_SPEC, infer_coding(rows))
        with pytest.raises(InputError):
            predict_response(result, {"A": 0.5})

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_rejected(self, level):
        rows = bundled_table4()
        result = fit(rows, PAPER_SPEC, infer_coding(rows))
        point = dict(rows[0].levels, D=level)
        with pytest.raises(InputError, match=f"factor D level {level} is not finite"):
            predict_response(result, point)

    def test_int_too_large_for_a_float_rejected(self):
        rows = bundled_table4()
        result = fit(rows, PAPER_SPEC, infer_coding(rows))
        point = dict(rows[0].levels, D=2**1100)
        with pytest.raises(InputError, match="factor D level is too large for a float"):
            predict_response(result, point)


class TestEvaluateDesign:
    def make_constant_predictor(self, letters, value=0.5):
        from hra_forge.ann import EnsembleMember, Topology, TrainedPredictor, WeightSet

        k = len(letters)
        # zero weights force the network output to exactly 0.5
        weights = WeightSet(np.zeros((k, k)), np.zeros(k), np.zeros(k), 0.0)
        member = EnsembleMember(seed=1, weights=weights, final_loss=0.0)
        active = tuple(PsfId.from_letter(l) for l in letters)
        return TrainedPredictor(
            topology=Topology(k, k),
            members=(member,),
            active_psfs=active,
            maxima={p: 1.0 for p in active},
            dropped_seeds=(),
        )

    def test_constant_predictor_gives_constant_reliability(self):
        letters = ["A", "B"]
        rows = generate_ccd(letters, uniform_coding(letters), 2)
        pred = self.make_constant_predictor(letters)
        filled = evaluate_design(rows, pred)
        assert all(r.response == pytest.approx(50.0) for r in filled)
        # originals untouched
        assert all(r.response is None for r in rows)

    def test_out_of_range_level_named(self):
        letters = ["A", "B"]
        pred = self.make_constant_predictor(letters)
        rows = [DesignRow(1, 1, {"A": 1.4, "B": 0.5}, None)]
        with pytest.raises(InputError) as err:
            evaluate_design(rows, pred)
        msg = str(err.value)
        assert "A" in msg and "1" in msg

    def test_missing_column_rejected(self):
        pred = self.make_constant_predictor(["A", "B"])
        rows = [DesignRow(1, 1, {"A": 0.5}, None)]
        with pytest.raises(InputError):
            evaluate_design(rows, pred)


class TestRankDeficiency:
    def test_collinear_terms_named(self):
        rows = [
            DesignRow(i + 1, i + 1, {"A": x, "B": x}, float(i))
            for i, x in enumerate([0.2, 0.8, 0.2, 0.8, 0.5, 0.5, 0.4, 0.6])
        ]
        spec = ModelSpec((intercept(), main_effect("A"), main_effect("B")), 1.0)
        with pytest.raises(RankDeficientError) as err:
            fit(rows, spec, uniform_coding(["A", "B"]))
        assert "A" in str(err.value) and "B" in str(err.value)

    def test_too_few_rows_rejected(self):
        rows = [
            DesignRow(1, 1, {"A": 0.2}, 1.0),
            DesignRow(2, 2, {"A": 0.8}, 2.0),
        ]
        spec = full_quadratic(["A"], 1.0)
        with pytest.raises(InputError):
            fit(rows, spec, uniform_coding(["A"]))


class TestPureErrorGrouping:
    """``_pure_error`` numbers replicate groups by first appearance; the
    ``np.unique(axis=0)`` computation it replaced is the reference, and
    the two must agree bit for bit."""

    @staticmethod
    def unique_reference(rows, spec, z):
        _, levels = rsm._design_levels(rows, spec)
        _, group, counts = np.unique(
            levels, axis=0, return_inverse=True, return_counts=True
        )
        group = group.reshape(-1)  # numpy 2.0.0 returns it with a trailing axis
        df_pe = len(z) - len(counts)
        if df_pe == 0:
            return 0.0, 0
        dev = z - (np.bincount(group, weights=z) / counts)[group]
        return float(dev @ dev), df_pe

    def test_interleaved_unsorted_groups_and_signed_zero(self):
        # four replicate groups, interleaved and not in sorted order; the
        # (0.5, 0.0) group holds a row at (0.5, -0.0) too, one singleton
        levels = [(0.9, 0.1), (0.2, 0.7), (0.5, 0.0), (0.9, 0.1), (0.5, -0.0),
                  (0.2, 0.7), (0.4, 0.4), (0.5, 0.0), (0.2, 0.7), (0.9, 0.1),
                  (0.1, 0.9), (0.5, -0.0), (0.2, 0.7)]
        responses = np.random.default_rng(5).normal(80.0, 7.0, len(levels))
        rows = [DesignRow(i, i, {"A": a, "B": b}, float(y))
                for i, ((a, b), y) in enumerate(zip(levels, responses), start=1)]
        spec = full_quadratic(["A", "B"], 3.0)
        z = responses ** 3.0
        ss, df = rsm._pure_error(rows, spec, z)
        want_ss, want_df = self.unique_reference(rows, spec, z)
        assert df == want_df == len(levels) - 5
        assert ss.hex() == want_ss.hex()

    def test_shuffled_table4_and_no_replicates(self):
        rows = bundled_table4()
        spec = full_quadratic(sorted(rows[0].levels), 3.0)
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(rows))
            shuffled = [rows[i] for i in order]
            z = np.array([r.response for r in shuffled]) ** 3.0
            ss, df = rsm._pure_error(shuffled, spec, z)
            want_ss, want_df = self.unique_reference(shuffled, spec, z)
            assert (ss.hex(), df) == (want_ss.hex(), want_df)
            assert df > 0
        distinct = [r for r in rows if r.std_order <= 54]  # no center rows
        z = np.array([r.response for r in distinct])
        assert rsm._pure_error(distinct, spec, z) == (0.0, 0) == \
            self.unique_reference(distinct, spec, z)


class TestTrailPrefixesAreHierarchical:
    """Trails run to their end: every prefix of the steps leaves a
    hierarchical spec, which pins the pass's removability bookkeeping (a
    main effect becomes removable exactly when its last child goes)."""

    # p > alpha holds for every step of these noise trails, so they run
    # down to the intercept; at alpha = 1 - 1e-12 no step would run
    ALPHA = 1e-12

    @staticmethod
    def cases():
        """(letters, coding, rows, power, whether the design is noise only)."""
        out = []
        for letters, seed in (("ABC", 0), ("ABCDE", 1), ("ABCDEFGH", 4), ("ACEG", 9)):
            coding, rows = noise_ccd(list(letters), seed)
            out.append((list(letters), coding, rows, 1.0, True))
        rng = np.random.default_rng(31)
        out += [(*random_ccd_case(rng, 2 + i % 5), 1.0 + 2.0 * (i % 2), False)
                for i in range(10)]
        return out

    def test_every_prefix_builds(self):
        mains_removed = 0
        for letters, coding, rows, power, noise in self.cases():
            full = full_quadratic(letters, power)
            reduced, steps = backward_eliminate(rows, full, self.ALPHA, coding)
            terms = list(full.terms)
            for step in steps:
                terms.remove(step.term)
                ModelSpec(tuple(terms), power)  # raises unless hierarchical
                mains_removed += step.term.kind == rsm._KIND_MAIN
            assert ModelSpec(tuple(terms), power) == reduced
            if noise:
                assert reduced.terms == (intercept(),)
        assert mains_removed >= 20
