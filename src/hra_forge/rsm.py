"""Response-surface subsystem: designs, quadratic fits, ANOVA, screening.

The workflow fits an ordinary-least-squares quadratic to a transformed
response (reliability raised to a configurable power) over a central
composite design, computes a partial-sum-of-squares ANOVA with a
lack-of-fit test, reduces the model by hierarchical backward elimination,
and declares a factor inert when no surviving term involves it.

All ANOVA arithmetic runs in coded units: factor levels are rescaled so the
factorial levels sit at +/-1 and the center at 0. Model-level quantities
(model/residual sums of squares, R^2, the F partition) are invariant under
any affine recoding because a hierarchical polynomial spans the same column
space; individual term sums of squares are not, which is why the coding is
inferred from the design itself rather than assumed.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy.special import fdtrc

from .dataset import DesignRow
from .errors import InputError, NumericalError, RankDeficientError
from .ioutil import fmt_full
from .psf import PSF_ORDER, PsfId

#: Default axial distance: places axial points at +/- 5/3 in coded units.
DEFAULT_AXIAL = 5.0 / 3.0

_KIND_INTERCEPT, _KIND_MAIN, _KIND_INTERACTION, _KIND_QUADRATIC = 0, 1, 2, 3


@dataclass(frozen=True, order=True)
class ModelTerm:
    """Intercept, main effect, two-factor interaction, or pure quadratic.

    Ordering is canonical: intercept, mains A..H, interactions, quadratics,
    each alphabetical. Interaction letters are stored sorted.
    """

    kind: int
    letters: tuple[str, ...]

    def __post_init__(self):
        for letter in self.letters:
            if letter not in "ABCDEFGH":
                raise InputError(f"factor letter must be one of A..H, got {letter!r}")
        if self.kind == _KIND_INTERCEPT and self.letters:
            raise InputError("intercept term carries no factors")
        if self.kind == _KIND_MAIN and len(self.letters) != 1:
            raise InputError("main effect needs exactly one factor")
        if self.kind == _KIND_INTERACTION:
            if len(self.letters) != 2 or self.letters[0] == self.letters[1]:
                raise InputError("interaction needs two distinct factors")
            if tuple(sorted(self.letters)) != self.letters:
                raise InputError("interaction letters must be in alphabetical order")
        if self.kind == _KIND_QUADRATIC and len(self.letters) != 1:
            raise InputError("quadratic term needs exactly one factor")

    def __str__(self):
        if self.kind == _KIND_INTERCEPT:
            return "1"
        if self.kind == _KIND_QUADRATIC:
            return f"{self.letters[0]}^2"
        return "".join(self.letters)

    def involves(self, letter: str) -> bool:
        return letter in self.letters


def intercept() -> ModelTerm:
    return ModelTerm(_KIND_INTERCEPT, ())


def main_effect(letter: str) -> ModelTerm:
    return ModelTerm(_KIND_MAIN, (letter,))


def interaction(a: str, b: str) -> ModelTerm:
    return ModelTerm(_KIND_INTERACTION, tuple(sorted((a, b))))


def quadratic(letter: str) -> ModelTerm:
    return ModelTerm(_KIND_QUADRATIC, (letter,))


def parse_term(text: str) -> ModelTerm:
    token = text.strip()
    if token == "1":
        return intercept()
    if token.endswith("^2") and len(token) == 3:
        return quadratic(token[0])
    if len(token) == 1 and token.isalpha():
        return main_effect(token)
    if len(token) == 2 and token.isalpha():
        return interaction(token[0], token[1])
    raise InputError(f"cannot parse model term {token!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A hierarchical term set plus the response-transform exponent.

    Hierarchy: an interaction requires both parent mains, a quadratic
    requires its main. The intercept is always present.
    """

    terms: tuple[ModelTerm, ...]
    response_power: float = 1.0

    def __post_init__(self):
        terms = tuple(sorted(set(self.terms)))
        if intercept() not in terms:
            raise InputError("model must include the intercept term")
        present = set(terms)
        for term in terms:
            if term.kind in (_KIND_INTERACTION, _KIND_QUADRATIC):
                for letter in term.letters:
                    if main_effect(letter) not in present:
                        raise InputError(
                            f"model is not hierarchical: {term} requires main "
                            f"effect {letter}"
                        )
        if not (math.isfinite(self.response_power) and self.response_power > 0):
            raise InputError("response power must be a positive real")
        object.__setattr__(self, "terms", terms)

    def letters(self) -> tuple[str, ...]:
        found = sorted({l for t in self.terms for l in t.letters})
        return tuple(found)

    def without(self, term: ModelTerm) -> "ModelSpec":
        return ModelSpec(
            tuple(t for t in self.terms if t != term), self.response_power
        )

    def to_text(self) -> str:
        body = ", ".join(str(t) for t in self.terms)
        return f"{body}; power={self.response_power:g}"


def parse_model_spec(text: str) -> ModelSpec:
    """Parse the canonical text form, e.g. ``1, A, B, AD, C^2; power=3``."""
    body, _, tail = text.partition(";")
    power = 1.0
    tail = tail.strip()
    if tail:
        key, _, value = tail.partition("=")
        if key.strip() != "power":
            raise InputError(f"unknown model spec option {tail!r}")
        try:
            power = float(value)
        except ValueError:
            raise InputError(f"cannot parse power value {value!r}") from None
    terms = tuple(parse_term(tok) for tok in body.split(",") if tok.strip())
    if not terms:
        raise InputError("model spec has no terms")
    return ModelSpec(terms, power)


def full_quadratic(letters: Sequence[str], power: float = 1.0) -> ModelSpec:
    """Intercept, all mains, all two-factor interactions, all quadratics."""
    letters = list(letters)
    terms = [intercept()]
    terms += [main_effect(l) for l in letters]
    terms += [interaction(a, b) for a, b in itertools.combinations(sorted(letters), 2)]
    terms += [quadratic(l) for l in letters]
    return ModelSpec(tuple(terms), power)


@dataclass(frozen=True)
class FactorCoding:
    """Affine recoding per factor: coded = (actual - center) / half_range."""

    factors: Mapping[str, tuple[float, float]]

    def __post_init__(self):
        for letter, (center, half) in self.factors.items():
            if not (math.isfinite(center) and math.isfinite(half) and half > 0):
                raise InputError(
                    f"factor {letter}: invalid coding (center={center}, half={half})"
                )
        object.__setattr__(self, "factors", dict(self.factors))

    def code(self, letter: str, actual: float) -> float:
        center, half = self.factors[letter]
        return (actual - center) / half

    def decode(self, letter: str, coded: float) -> float:
        center, half = self.factors[letter]
        return center + half * coded


def uniform_coding(letters: Sequence[str], center: float = 0.5, half: float = 0.3) -> FactorCoding:
    """The same (center, half_range) for every factor; the default for
    generated designs on the normalized [0, 1] scale."""
    return FactorCoding({l: (center, half) for l in letters})


def infer_coding(rows: Sequence[DesignRow]) -> FactorCoding:
    """Recover the coding a central composite design was built with.

    The replicated rows give the center; the two factorial levels are the
    distinct levels adjacent to the extremes (axial points lie outside the
    factorial cube). Requires each factor to show the full five-level
    pattern, or three levels for a purely factorial design with centers.
    """
    if not rows:
        raise InputError("cannot infer a coding from an empty design")
    letters = sorted(rows[0].levels)
    groups: dict[tuple, int] = {}
    for r in rows:
        key = tuple(r.levels[l] for l in letters)
        groups[key] = groups.get(key, 0) + 1
    center_key, count = max(groups.items(), key=lambda kv: (kv[1], kv[0]))
    if count < 2:
        raise InputError("design has no replicated center row; cannot infer coding")
    centers = dict(zip(letters, center_key))
    factors = {}
    for letter in letters:
        levels = sorted({r.levels[letter] for r in rows})
        if len(levels) == 5:
            half = (levels[3] - levels[1]) / 2.0
        elif len(levels) == 3:
            half = (levels[2] - levels[0]) / 2.0
        else:
            raise InputError(
                f"factor {letter}: expected 3 or 5 distinct levels, found "
                f"{len(levels)}"
            )
        factors[letter] = (centers[letter], half)
    return FactorCoding(factors)


# --- least squares ----------------------------------------------------------

def _design_levels(rows: Sequence[DesignRow], spec: ModelSpec):
    """Sorted factor letters and the (runs, factors) matrix of actual levels."""
    letters = sorted(rows[0].levels)
    missing = [l for l in spec.letters() if l not in letters]
    if missing:
        raise InputError(f"design lacks factors used by the model: {missing}")
    levels = np.array([[r.levels[l] for l in letters] for r in rows], dtype=float)
    return letters, levels


def _coded_matrix(levels: np.ndarray, letters: Sequence[str], coding: FactorCoding):
    center = np.array([coding.factors[l][0] for l in letters], dtype=float)
    half = np.array([coding.factors[l][1] for l in letters], dtype=float)
    return (levels - center) / half


def _term_column(term: ModelTerm, coded: np.ndarray, index: Mapping[str, int]):
    n = coded.shape[0]
    if term.kind == _KIND_INTERCEPT:
        return np.ones(n)
    if term.kind == _KIND_MAIN:
        return coded[:, index[term.letters[0]]]
    if term.kind == _KIND_INTERACTION:
        return coded[:, index[term.letters[0]]] * coded[:, index[term.letters[1]]]
    return coded[:, index[term.letters[0]]] ** 2


def _columns(spec: ModelSpec, coded: np.ndarray, letters: Sequence[str]):
    index = {l: i for i, l in enumerate(letters)}
    return np.column_stack([_term_column(t, coded, index) for t in spec.terms])


def model_matrix(rows: Sequence[DesignRow], spec: ModelSpec, coding: FactorCoding):
    """Columns in canonical term order, evaluated in coded units."""
    letters, levels = _design_levels(rows, spec)
    return _columns(spec, _coded_matrix(levels, letters, coding), letters)


@dataclass(frozen=True)
class FitResult:
    """An OLS fit of the transformed response on the coded model columns."""

    spec: ModelSpec
    coding: FactorCoding
    coefficients: dict[ModelTerm, float]          # coded units
    fitted: np.ndarray                            # transformed scale
    residuals: np.ndarray
    r2: float
    coded_ranges: dict[str, tuple[float, float]]

    @property
    def sse(self) -> float:
        return float(self.residuals @ self.residuals)


def fit(rows: Sequence[DesignRow], spec: ModelSpec, coding: FactorCoding) -> FitResult:
    """Ordinary least squares of response**power on the coded model columns."""
    if not rows:
        raise InputError("cannot fit an empty design")
    unset = [r.std_order for r in rows if r.response is None]
    if unset:
        raise InputError(f"design rows without responses (std {unset}); evaluate first")
    if len(rows) <= len(spec.terms):
        raise InputError(
            f"need more runs ({len(rows)}) than model terms ({len(spec.terms)})"
        )
    letters, levels = _design_levels(rows, spec)
    coded = _coded_matrix(levels, letters, coding)
    X = _columns(spec, coded, letters)
    rank = np.linalg.matrix_rank(X)
    if rank < X.shape[1]:
        # name the columns whose removal does not lower the rank
        collinear = [
            term
            for i, term in enumerate(spec.terms)
            if np.linalg.matrix_rank(np.delete(X, i, axis=1)) == rank
        ]
        raise RankDeficientError(collinear)
    z = np.array([r.response for r in rows], dtype=float) ** spec.response_power
    coef_vec, _, _, _ = np.linalg.lstsq(X, z, rcond=None)
    fitted = X @ coef_vec
    residuals = z - fitted
    sst = float(((z - z.mean()) ** 2).sum())
    sse = float(residuals @ residuals)
    r2 = 1.0 - sse / sst if sst > 0 else 1.0
    coef = dict(zip(spec.terms, (float(c) for c in coef_vec)))
    ranges = {
        l: (float(lo), float(hi))
        for l, lo, hi in zip(letters, coded.min(axis=0), coded.max(axis=0))
    }
    return FitResult(
        spec=spec,
        coding=coding,
        coefficients=coef,
        fitted=fitted,
        residuals=residuals,
        r2=r2,
        coded_ranges=ranges,
    )


# --- ANOVA -------------------------------------------------------------------

@dataclass(frozen=True)
class AnovaRow:
    source: str
    ss: float
    df: int
    ms: Optional[float]
    f: Optional[float]
    p: Optional[float]


@dataclass(frozen=True)
class AnovaTable:
    rows: tuple[AnovaRow, ...]

    def __getitem__(self, source: str) -> AnovaRow:
        for row in self.rows:
            if row.source == source:
                return row
        raise KeyError(source)

    @property
    def lack_of_fit_available(self) -> bool:
        return any(r.source == "Lack of Fit" for r in self.rows)

    def term_pvalues(self) -> dict[ModelTerm, float]:
        fixed = {"Model", "Residual", "Lack of Fit", "Pure Error", "Cor Total"}
        return {
            parse_term(r.source): r.p
            for r in self.rows
            if r.source not in fixed and r.p is not None
        }


def _f_pvalue(f: float, dfn: int, dfd: int) -> float:
    if math.isinf(f):
        return 0.0
    return float(fdtrc(dfn, dfd, f))


def _check_additivity(parts, total, what):
    scale = max(abs(total), 1.0)
    if abs(sum(parts) - total) > 1e-6 * scale:
        raise NumericalError(
            f"ANOVA bookkeeping violated: {what} parts {parts} do not sum to {total}"
        )


def anova(fit_result: FitResult, rows: Sequence[DesignRow]) -> AnovaTable:
    """Partial (per-term) ANOVA with a replicate-based lack-of-fit test.

    Each non-intercept term gets one degree of freedom; its sum of squares is
    the increase in residual SS when that column alone is removed. That
    extra sum of squares equals b_i^2 / [(X'X)^-1]_ii, with b_i the fitted
    coefficient, so one QR factorization X = QR serves every term: the
    diagonal of (X'X)^-1 = R^-1 R^-T is the row sums of R^-1 squared
    elementwise. Against refitting with the column deleted, term p-values
    agree within 1e-9 relative, and term SS and F within 1e-9 relative to
    max(F, 1): below F = 1 the refit's own difference of two SSEs carries
    rounding of about eps * SSE. Term and model F statistics test against
    the residual mean square; lack of fit tests against pure error pooled
    from rows with identical level vectors. Without replicate rows the
    lack-of-fit partition is omitted.
    """
    spec = fit_result.spec
    letters, levels = _design_levels(rows, spec)
    X = _columns(spec, _coded_matrix(levels, letters, fit_result.coding), letters)
    z = np.array([r.response for r in rows], dtype=float) ** spec.response_power
    n = len(rows)
    sse = fit_result.sse
    ss_total = float(((z - z.mean()) ** 2).sum())
    ss_model = float(((fit_result.fitted - z.mean()) ** 2).sum())
    df_model = len(spec.terms) - 1
    df_resid = n - len(spec.terms)
    df_total = n - 1
    if df_resid <= 0:
        raise InputError("no residual degrees of freedom")
    ms_model = ss_model / df_model
    ms_resid = sse / df_resid
    f_model = ms_model / ms_resid
    out = [
        AnovaRow("Model", ss_model, df_model, ms_model, f_model,
                 _f_pvalue(f_model, df_model, df_resid))
    ]
    r_inv = np.linalg.inv(np.linalg.qr(X, mode="r"))
    inv_diag = (r_inv * r_inv).sum(axis=1)
    b = np.array([fit_result.coefficients[t] for t in spec.terms])
    for term, ss in zip(spec.terms, b * b / inv_diag):
        if term.kind == _KIND_INTERCEPT:
            continue
        ss_term = max(float(ss), 0.0)
        f_term = ss_term / ms_resid
        out.append(
            AnovaRow(str(term), ss_term, 1, ss_term, f_term,
                     _f_pvalue(f_term, 1, df_resid))
        )
    out.append(AnovaRow("Residual", sse, df_resid, ms_resid, None, None))

    _, group, counts = np.unique(
        levels, axis=0, return_inverse=True, return_counts=True
    )
    group = group.reshape(-1)  # numpy 2.0.0 returns it with a trailing axis
    df_pe = n - len(counts)
    if df_pe > 0:
        dev = z - (np.bincount(group, weights=z) / counts)[group]
        ss_pe = float(dev @ dev)
        ss_lof = max(sse - ss_pe, 0.0)
        df_lof = df_resid - df_pe
        ms_pe = ss_pe / df_pe
        ms_lof = ss_lof / df_lof if df_lof > 0 else 0.0
        f_lof = (ms_lof / ms_pe) if ms_pe > 0 else math.inf
        p_lof = _f_pvalue(f_lof, df_lof, df_pe) if df_lof > 0 else None
        out.append(AnovaRow("Lack of Fit", ss_lof, df_lof, ms_lof,
                            f_lof if df_lof > 0 else None, p_lof))
        out.append(AnovaRow("Pure Error", ss_pe, df_pe, ms_pe, None, None))
        _check_additivity((ss_lof, ss_pe), sse, "lack of fit + pure error")
    out.append(AnovaRow("Cor Total", ss_total, df_total, None, None, None))
    _check_additivity((ss_model, sse), ss_total, "model + residual")
    return AnovaTable(tuple(out))


def anova_csv_text(table: AnovaTable) -> str:
    lines = ["source,sum_of_squares,df,mean_square,f_value,p_value"]
    for r in table.rows:
        cells = [
            r.source,
            fmt_full(r.ss),
            str(r.df),
            "" if r.ms is None else fmt_full(r.ms),
            "" if r.f is None else fmt_full(r.f),
            "" if r.p is None else fmt_full(r.p),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# --- model reduction and screening ------------------------------------------

@dataclass(frozen=True)
class EliminationStep:
    term: ModelTerm
    p_value: float
    sse_after: float


def _protected(spec: ModelSpec) -> set[ModelTerm]:
    """Mains that must stay because a surviving child term involves them."""
    keep = set()
    for term in spec.terms:
        if term.kind in (_KIND_INTERACTION, _KIND_QUADRATIC):
            for letter in term.letters:
                keep.add(main_effect(letter))
    return keep


def backward_eliminate(
    rows: Sequence[DesignRow],
    full_spec: ModelSpec,
    alpha: float,
    coding: FactorCoding,
):
    """Remove the weakest term until everything removable is significant.

    Each pass computes partial p-values of the current fit and drops the
    removable term with the largest p above alpha (ties broken by canonical
    term order). Each spec is fit once: the reduced spec's fit gives the
    step's ``sse_after`` and the next pass's p-values.
    Main effects are not removable while any interaction or quadratic child
    survives, so the result stays hierarchical. Returns (reduced spec, steps).
    """
    spec, steps, _, _ = _eliminate(rows, full_spec, alpha, coding)
    return spec, steps


def _eliminate(
    rows: Sequence[DesignRow],
    full_spec: ModelSpec,
    alpha: float,
    coding: FactorCoding,
):
    """``backward_eliminate`` plus the reduced spec's fit and ANOVA table,
    which its last pass computed: (spec, steps, fit, table)."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")
    spec = full_spec
    current = fit(rows, spec, coding)
    steps: list[EliminationStep] = []
    while True:
        table = anova(current, rows)
        protected = _protected(spec)
        candidates = [
            (term, p)
            for term, p in table.term_pvalues().items()
            if p > alpha and term not in protected
        ]
        if not candidates:
            return spec, tuple(steps), current, table
        # largest p first; canonical term order settles exact ties
        term, p = min(candidates, key=lambda tp: (-tp[1], tp[0]))
        spec = spec.without(term)
        current = fit(rows, spec, coding)
        steps.append(EliminationStep(term, p, current.sse))


@dataclass(frozen=True)
class ScreeningReport:
    """Factor-level verdicts derived from a reduced model's term set."""

    eliminated: tuple[PsfId, ...]
    retained: tuple[PsfId, ...]
    evidence: dict[PsfId, tuple[tuple[ModelTerm, Optional[float]], ...]]


def screen_psfs(
    reduced: ModelSpec,
    active: Sequence[PsfId],
    term_pvalues: Optional[Mapping[ModelTerm, float]] = None,
) -> ScreeningReport:
    """A PSF is eliminated iff no surviving term involves its letter."""
    pvals = dict(term_pvalues or {})
    eliminated = []
    retained = []
    evidence = {}
    for psf in active:
        involved = tuple(
            (term, pvals.get(term))
            for term in reduced.terms
            if term.involves(psf.letter)
        )
        evidence[psf] = involved
        (retained if involved else eliminated).append(psf)
    return ScreeningReport(tuple(eliminated), tuple(retained), evidence)


def screening_text(report: ScreeningReport) -> str:
    lines = [
        "eliminated: " + (", ".join(p.name for p in report.eliminated) or "(none)"),
        "retained: " + (", ".join(p.name for p in report.retained) or "(none)"),
        "evidence:",
    ]
    for psf in PSF_ORDER:
        if psf not in report.evidence:
            continue
        terms = report.evidence[psf]
        verdict = "retained" if terms else "eliminated"
        shown = ", ".join(
            f"{t}" + (f" (p={p:.4g})" if p is not None else "") for t, p in terms
        )
        lines.append(f"  {psf.letter} {psf.name}: {verdict}"
                     + (f"; terms: {shown}" if shown else ""))
    return "\n".join(lines) + "\n"


# --- prediction ---------------------------------------------------------------

@dataclass(frozen=True)
class PredictionResult:
    value: float
    extrapolated: bool
    clamped: bool


def predict_response(fit_result: FitResult, point: Mapping[str, float]) -> PredictionResult:
    """Evaluate the fitted polynomial at actual-unit levels.

    The polynomial gives the transformed response; the inverse transform
    (power-th root) maps it back to the 0..100 reliability scale. Points
    outside the design's coded range are flagged as extrapolation; a negative
    transformed value (no real root) clamps to 0 and is flagged.
    """
    letters = sorted(fit_result.coded_ranges)
    missing = [l for l in letters if l not in point]
    if missing:
        raise InputError(f"prediction point lacks factors: {missing}")
    extrapolated = False
    coded = {}
    for letter in letters:
        c = fit_result.coding.code(letter, float(point[letter]))
        lo, hi = fit_result.coded_ranges[letter]
        if c < lo - 1e-9 or c > hi + 1e-9:
            extrapolated = True
        coded[letter] = c
    z = 0.0
    for term, b in fit_result.coefficients.items():
        if term.kind == _KIND_INTERCEPT:
            z += b
        elif term.kind == _KIND_MAIN:
            z += b * coded[term.letters[0]]
        elif term.kind == _KIND_INTERACTION:
            z += b * coded[term.letters[0]] * coded[term.letters[1]]
        else:
            z += b * coded[term.letters[0]] ** 2
    clamped = False
    if z < 0.0:
        value = 0.0
        clamped = True
    else:
        value = z ** (1.0 / fit_result.spec.response_power)
        if value > 100.0:
            value = 100.0
            clamped = True
    return PredictionResult(value, extrapolated, clamped)


# --- design generation --------------------------------------------------------

def _fraction_signs(k: int) -> np.ndarray:
    """Two-level factorial fraction of resolution >= V, first factor fastest."""
    base = min(k, 6) if k >= 7 else (4 if k == 5 else (5 if k == 6 else k))
    rows = []
    for i in range(2 ** base):
        signs = [1 if (i >> j) & 1 else -1 for j in range(base)]
        rows.append(signs)
    signs = np.array(rows, dtype=float)
    if k <= 4:
        return signs
    if k == 5:
        extra = signs[:, 0] * signs[:, 1] * signs[:, 2] * signs[:, 3]
        return np.column_stack([signs, extra])
    if k == 6:
        extra = signs.prod(axis=1)
        return np.column_stack([signs, extra])
    if k == 7:
        extra = signs.prod(axis=1)
        return np.column_stack([signs, extra])
    if k == 8:
        g = signs[:, 0] * signs[:, 1] * signs[:, 2] * signs[:, 3]
        h = signs[:, 0] * signs[:, 1] * signs[:, 4] * signs[:, 5]
        return np.column_stack([signs, g, h])
    raise InputError(f"factor count {k} outside the supported range 2..8")


def generate_ccd(
    factors: Sequence,
    coding: FactorCoding,
    n_center: int,
    axial: float = DEFAULT_AXIAL,
) -> list[DesignRow]:
    """Central composite design: factorial fraction, axial pairs, center rows.

    The factorial block is a full two-level factorial up to four factors and
    a resolution-V (or better) regular fraction beyond; axial points sit at
    +/- ``axial`` in coded units. Responses are left unset. Run order equals
    standard order so generated designs are deterministic.
    """
    letters = [f.letter if isinstance(f, PsfId) else str(f) for f in factors]
    if not 2 <= len(letters) <= 8:
        raise InputError(f"factor count must be between 2 and 8, got {len(letters)}")
    if len(set(letters)) != len(letters):
        raise InputError("factor letters must be distinct")
    if n_center < 0:
        raise InputError("center-point count cannot be negative")
    if not axial > 0:
        raise InputError("axial distance must be positive")
    k = len(letters)
    blocks = [list(signs) for signs in _fraction_signs(k)]
    for j in range(k):
        for direction in (-axial, axial):
            row = [0.0] * k
            row[j] = direction
            blocks.append(row)
    blocks.extend([[0.0] * k for _ in range(n_center)])
    rows = []
    for idx, coded in enumerate(blocks, start=1):
        levels = {
            letter: coding.decode(letter, coded[j]) for j, letter in enumerate(letters)
        }
        rows.append(DesignRow(std_order=idx, run_order=idx, levels=levels))
    return rows


def evaluate_design(rows: Sequence[DesignRow], predictor) -> list[DesignRow]:
    """Fill responses as percent reliability, 100 * (1 - predicted HEP).

    Row levels are normalized PSF coordinates and must stay inside [0, 1],
    the region the network was trained on.
    """
    letters = [p.letter for p in predictor.active_psfs]
    for r in rows:
        missing = [l for l in letters if l not in r.levels]
        if missing:
            raise InputError(f"design std {r.std_order}: missing factors {missing}")
        for l in letters:
            v = r.levels[l]
            if not 0.0 <= v <= 1.0:
                raise InputError(
                    f"design std {r.std_order}: level {l}={v} outside [0, 1]"
                )
    X = np.array([[r.levels[l] for l in letters] for r in rows], dtype=float)
    hep = predictor.predict_normalized(X)
    return [replace(r, response=float(100.0 * (1.0 - h))) for r, h in zip(rows, hep)]
