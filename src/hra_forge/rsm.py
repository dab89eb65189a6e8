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

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from .dataset import DesignRow
from .dist import f_sf
from .errors import InputError, NumericalError, RankDeficientError
from .ioutil import csv_text
from .psf import PSF_ORDER, PsfId

#: Default axial distance: places axial points at +/- 5/3 in coded units.
DEFAULT_AXIAL = 5.0 / 3.0

#: Center runs of a generated central composite design.
DEFAULT_CENTER_RUNS = 6

#: The most center runs ``generate_ccd`` (``design --center``) accepts. At the
#: cap an 8-factor ``design --generate`` takes about 0.2 s and 8 MB more peak
#: memory than the default design; 200,000 center runs took 203 MB and 2.7 s.
MAX_CENTER_RUNS = 10_000

#: ``uniform_coding``'s (center, half range): default axial points land on 0 and 1.
UNIFORM_CODING = (0.5, 0.3)

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


def _parents(term: ModelTerm) -> tuple[ModelTerm, ...]:
    """The main effects an interaction or quadratic requires; none otherwise."""
    if term.kind in (_KIND_INTERACTION, _KIND_QUADRATIC):
        return tuple(main_effect(letter) for letter in term.letters)
    return ()


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


def check_response_power(power: float) -> None:
    """The one rule for a response-transform exponent: finite and > 0."""
    if not (math.isfinite(power) and power > 0):
        raise InputError("response power must be a positive real")


def check_alpha(alpha: float) -> None:
    """The one rule for a significance level: strictly between 0 and 1."""
    if not 0.0 < alpha < 1.0:
        raise InputError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class ModelSpec:
    """A hierarchical term set plus the response-transform exponent.

    Hierarchy: an interaction requires both parent mains, a quadratic
    requires its main. The intercept is always present.
    """

    terms: tuple[ModelTerm, ...]
    response_power: float

    def __post_init__(self):
        terms = tuple(sorted(set(self.terms)))
        if intercept() not in terms:
            raise InputError("model must include the intercept term")
        present = set(terms)
        for term in terms:
            for parent in _parents(term):
                if parent not in present:
                    raise InputError(
                        f"model is not hierarchical: {term} requires main "
                        f"effect {parent}"
                    )
        check_response_power(self.response_power)
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


def full_quadratic(letters: Sequence[str], power: float) -> ModelSpec:
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


def uniform_coding(letters: Sequence[str]) -> FactorCoding:
    """UNIFORM_CODING for every factor: the coding of generated designs on the
    normalized [0, 1] scale."""
    return FactorCoding({l: UNIFORM_CODING for l in letters})


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
    """An OLS fit of the transformed response on the coded model columns.

    ``r_inv`` is R^-1 for the factorization X = QR of ``matrix``, the one
    factorization the fit made; ``anova`` reads its term tests off it.
    """

    spec: ModelSpec
    coding: FactorCoding
    coefficients: dict[ModelTerm, float]          # coded units
    fitted: np.ndarray                            # transformed scale
    residuals: np.ndarray
    r2: float
    coded_ranges: dict[str, tuple[float, float]]
    matrix: np.ndarray                            # coded columns, spec.terms order
    transformed: np.ndarray                       # response ** power, as fitted
    r_inv: np.ndarray                             # R^-1 of matrix = QR

    @property
    def sse(self) -> float:
        return float(self.residuals @ self.residuals)


@functools.cache  # one mask per column count, at most 46
def _below_diagonal(k: int) -> np.ndarray:
    """The read-only k x k mask of the entries below the diagonal."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


def _least_squares(X: np.ndarray, z: np.ndarray, terms=None):
    """The OLS core of ``fit`` and of every elimination pass: the
    coefficients, R^-1, fitted values and residuals of z on X's columns.

    One Householder QR of [X | z] gives both halves of the solve: its
    leading k x k block is X's R and its last column is Q'z, so
    coef = R^-1 Q'z. X must be C-contiguous: a strided view would take
    another BLAS path in ``fitted = X @ coef``. The QR is read in numpy's
    ``mode="raw"``, the same LAPACK call as ``mode="r"``: zeroing the
    Householder vectors below the diagonal with a cached mask is what
    ``mode="r"`` does with ``np.triu``, so R has the same bits. With
    ``terms`` (``fit``'s call) X's rank is checked first, from R's singular
    values, which are X's: a rank below k raises RankDeficientError naming
    the columns whose removal keeps the rank.
    """
    k = X.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        h, _ = np.linalg.qr(np.column_stack((X, z)), mode="raw")
        rz = h.T  # R on and above the diagonal; its last column is Q'z
        r = np.where(_below_diagonal(k), 0.0, rz[:k, :k])
        if terms is not None:
            _check_rank(X, r, terms)
        r_inv = np.linalg.inv(r)
        coef = r_inv @ rz[:k, k]
        fitted = X @ coef
        return coef, r_inv, fitted, z - fitted


def _check_rank(X: np.ndarray, r: np.ndarray, terms: Sequence[ModelTerm]) -> None:
    """X's rank counts R's singular values above sigma_max * max(n, k) * eps,
    the default rule of ``np.linalg.matrix_rank``."""
    s = np.linalg.svd(r, compute_uv=False)
    rank = int((s > s[0] * max(X.shape) * np.finfo(float).eps).sum())
    if rank < X.shape[1]:
        raise RankDeficientError([
            term
            for i, term in enumerate(terms)
            if np.linalg.matrix_rank(np.delete(X, i, axis=1)) == rank
        ])


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
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.array([r.response for r in rows], dtype=float) ** spec.response_power
        sst = float(((z - z.mean()) ** 2).sum())
    coef, r_inv, fitted, residuals = _least_squares(X, z, spec.terms)
    # overflow is reported here: comparisons with NaN would hide it later
    if not (np.isfinite(z).all() and math.isfinite(sst)):
        raise NumericalError(
            f"response power {spec.response_power:g} overflows the sums of squares"
        )
    sse = float(residuals @ residuals)
    return FitResult(
        spec=spec,
        coding=coding,
        coefficients=dict(zip(spec.terms, (float(c) for c in coef))),
        fitted=fitted,
        residuals=residuals,
        r2=1.0 - sse / sst if sst > 0 else 1.0,
        coded_ranges={
            l: (float(lo), float(hi))
            for l, lo, hi in zip(letters, coded.min(axis=0), coded.max(axis=0))
        },
        matrix=X,
        transformed=z,
        r_inv=r_inv,
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


def _f_test(ss: float, df: int, ms_error: float, df_error: int):
    """(ms, F, p) of ``ss`` on ``df`` degrees of freedom against ``ms_error``:
    df 0 gives ms 0 and no test; ms_error 0 gives F = inf and p = 0."""
    if df <= 0:
        return 0.0, None, None
    ms = ss / df
    f = ms / ms_error if ms_error > 0 else math.inf
    return ms, f, f_sf(df, df_error, f)


def _term_tests(r_inv: np.ndarray, coef: np.ndarray, ms_error: float):
    """(SS, F) arrays of each column's one-df partial test, by ``_f_test``'s
    rules: SS is b_i^2 / [(X'X)^-1]_ii, floored at 0, and its mean square;
    ms_error 0 gives F = inf. ``r_inv`` is the R^-1 of X = QR that the
    solve (``_least_squares``) already made, so nothing is factored here:
    the diagonal of (X'X)^-1 = R^-1 R^-T is the row sums of R^-1 squared
    elementwise. Every test has one numerator df and the residual df, so
    P(F > f) falls as F rises: ``anova`` takes every term's p-value, an
    elimination pass only the p-value of its smallest removable F."""
    ss = np.maximum(coef * coef / (r_inv * r_inv).sum(axis=1), 0.0)
    if ms_error > 0:
        with np.errstate(over="ignore"):
            f = ss / ms_error
    else:
        f = np.full_like(ss, np.inf)
    return ss, f


def _corrected_total(z: np.ndarray, power: float) -> float:
    """The corrected total SS of the transformed response, which must not be 0."""
    ss_total = float(((z - z.mean()) ** 2).sum())
    if ss_total == 0.0:
        raise NumericalError(
            f"the response raised to power {power:g} is constant; "
            "the F tests are undefined"
        )
    return ss_total


def _pure_error(rows: Sequence[DesignRow], spec: ModelSpec, z: np.ndarray):
    """(SS, df) of pure error: each group of replicate rows (identical level
    vectors) pools its deviations from the group mean. SS is 0 at df 0.

    Groups are numbered in order of first appearance by a dict over the
    level tuples, so -0.0 and 0.0 fall in one group (they are equal and
    hash alike); design levels are finite, so no NaN key arises. The
    numbering does not reach the arithmetic: ``np.bincount`` sums each
    group's responses in row order whatever its number, so SS has the bits
    of numbering the groups by sorting, as ``np.unique(axis=0)`` does."""
    _, levels = _design_levels(rows, spec)
    first: dict[tuple, int] = {}
    group = np.array([first.setdefault(key, len(first)) for key in map(tuple, levels.tolist())])
    counts = np.bincount(group)
    df_pe = len(z) - len(counts)
    if df_pe == 0:
        return 0.0, 0
    dev = z - (np.bincount(group, weights=z) / counts)[group]
    return float(dev @ dev), df_pe


def _check_additivity(parts, total, what):
    scale = max(abs(total), 1.0)
    if abs(sum(parts) - total) > 1e-6 * scale:
        raise NumericalError(
            f"ANOVA bookkeeping violated: {what} parts {parts} do not sum to {total}"
        )


def anova(fit_result: FitResult, rows: Sequence[DesignRow]) -> AnovaTable:
    """Partial (per-term) ANOVA with a replicate-based lack-of-fit test.

    The table reads the fit's transformed response, fitted values and R^-1;
    ``rows`` only group replicates (identical level vectors) for pure error.
    Each non-intercept term gets one degree of freedom; its sum of squares
    is the increase in residual SS when that column alone is removed. That
    extra sum of squares equals b_i^2 / [(X'X)^-1]_ii, with b_i the fitted
    coefficient, so the fit's own factorization X = QR serves every term
    and the table factors nothing: the diagonal of (X'X)^-1 = R^-1 R^-T is
    the row sums of R^-1 squared elementwise. Against refitting with the
    column deleted, term p-values agree within 1e-9 relative, and term SS
    and F within 1e-9 relative to max(F, 1): below F = 1 the refit's own
    difference of two SSEs carries rounding of about eps * SSE. One F rule
    tests the Model row (``_f_test``) and the term rows (``_term_tests``,
    which the passes of ``backward_eliminate`` share, and ``dist.f_sf``)
    against the residual mean square, and Lack of Fit against pure error.
    Elimination returns the reduced spec only; its table is
    ``anova(fit(rows, reduced, coding), rows)``. Without replicate rows the
    lack-of-fit partition is omitted; a constant transformed response
    leaves no F defined and raises NumericalError.
    """
    spec = fit_result.spec
    z = fit_result.transformed
    n = len(z)
    sse = fit_result.sse
    ss_total = _corrected_total(z, spec.response_power)
    ss_model = float(((fit_result.fitted - z.mean()) ** 2).sum())
    df_model = len(spec.terms) - 1
    df_resid = n - len(spec.terms)  # fit demands more runs than terms
    ms_resid = sse / df_resid
    out = [
        AnovaRow("Model", ss_model, df_model,
                 *_f_test(ss_model, df_model, ms_resid, df_resid))
    ]
    b = np.array([fit_result.coefficients[t] for t in spec.terms])
    ss, f = _term_tests(fit_result.r_inv, b, ms_resid)
    for term, ss_i, f_i in zip(spec.terms, ss.tolist(), f.tolist()):
        if term.kind != _KIND_INTERCEPT:  # one df: ms = ss
            out.append(AnovaRow(str(term), ss_i, 1, ss_i, f_i, f_sf(1, df_resid, f_i)))
    out.append(AnovaRow("Residual", sse, df_resid, ms_resid, None, None))
    ss_pe, df_pe = _pure_error(rows, spec, z)
    if df_pe > 0:
        ss_lof = max(sse - ss_pe, 0.0)
        df_lof = df_resid - df_pe
        ms_pe = ss_pe / df_pe
        out.append(AnovaRow("Lack of Fit", ss_lof, df_lof,
                            *_f_test(ss_lof, df_lof, ms_pe, df_pe)))
        out.append(AnovaRow("Pure Error", ss_pe, df_pe, ms_pe, None, None))
        _check_additivity((ss_lof, ss_pe), sse, "lack of fit + pure error")
    out.append(AnovaRow("Cor Total", ss_total, n - 1, None, None, None))
    _check_additivity((ss_model, sse), ss_total, "model + residual")
    return AnovaTable(tuple(out))


def anova_csv_text(table: AnovaTable) -> str:
    return csv_text(
        ["source", "sum_of_squares", "df", "mean_square", "f_value", "p_value"],
        ([r.source, r.ss, r.df, r.ms, r.f, r.p] for r in table.rows),
    )


# --- model reduction and screening ------------------------------------------

@dataclass(frozen=True)
class EliminationStep:
    term: ModelTerm
    p_value: float
    sse_after: float


def backward_eliminate(
    rows: Sequence[DesignRow],
    full_spec: ModelSpec,
    alpha: float,
    coding: FactorCoding,
):
    """Remove the weakest term until everything removable is significant.

    Returns (reduced spec, steps). The trail builds no fit or ANOVA table of
    the reduced spec: a caller that reports them calls ``fit`` and ``anova``
    on it, which give the same bytes as the trail's last pass.

    The weakest term is the removable term with the smallest partial F
    (ties broken by canonical term order). Every partial test of a pass has
    one numerator df and the same residual df, so it is also the removable
    term with the largest p-value, and each pass computes that one p-value:
    the term goes if p > alpha, and elimination stops otherwise. Main
    effects are not removable while any interaction or quadratic child
    survives, so the result stays hierarchical.

    Once per trail: one ``fit`` of the full spec (the trail's only rank and
    overflow check) gives the model matrix X_full, the transformed response
    z and the first pass's coefficients and R^-1; then come the corrected
    total, the pure-error SS, each term's count of surviving children and a
    boolean array of which columns of X_full are removable.

    A pass keeps its columns as a list of indices into X_full. Its
    ``anova`` additivity checks come first, then one ``_term_tests`` call
    on the last solve's R^-1 tests every kept column at once, the
    removability array masks the F values, and one ``f_sf`` call gives the
    p-value of the smallest. If the term goes, its index leaves the list,
    and a main effect that loses its last child with it becomes removable:
    the array changes only then. The next solve is one ``_least_squares``
    call, one QR, on a C-contiguous copy of the kept columns of X_full (a
    strided view would take another BLAS path and move SSEs in the last
    digits). So every step's p-value and ``sse_after`` (the SSE once the
    term is gone) have the bits of ``anova(fit(...))`` on that spec.
    Deleting columns can neither lower the smallest singular value nor
    raise the largest, so every kept subset has full rank when X_full has.
    """
    check_alpha(alpha)
    full = fit(rows, full_spec, coding)
    X_full, z = full.matrix, full.transformed
    n, k = X_full.shape
    z_mean = z.mean()
    ss_total = _corrected_total(z, full_spec.response_power)
    ss_pe, df_pe = _pure_error(rows, full_spec, z)
    terms = full_spec.terms
    at = {t: j for j, t in enumerate(terms)}
    parents = [[at[q] for q in _parents(t)] for t in terms]
    children = [0] * k  # surviving children per column
    for js in parents:
        for q in js:
            children[q] += 1
    removable = np.array([t.kind != _KIND_INTERCEPT and not children[j]
                          for j, t in enumerate(terms)])
    cols = list(range(k))  # the kept columns of X_full
    coef = np.array([full.coefficients[t] for t in terms])
    r_inv, fitted, residuals = full.r_inv, full.fitted, full.residuals
    steps: list[EliminationStep] = []
    while True:
        sse = float(residuals @ residuals)
        if df_pe > 0:
            _check_additivity((max(sse - ss_pe, 0.0), ss_pe), sse,
                              "lack of fit + pure error")
        ss_model = float(((fitted - z_mean) ** 2).sum())
        _check_additivity((ss_model, sse), ss_total, "model + residual")
        df_resid = n - len(cols)
        _, f = _term_tests(r_inv, coef, sse / df_resid)
        # smallest F is largest p; argmin keeps the first, canonical, of
        # exact ties. With no removable column every F is inf, and p = 0.
        f = np.where(removable[cols], f, np.inf)
        drop = int(np.argmin(f))
        p_value = f_sf(1, df_resid, float(f[drop]))
        if not p_value > alpha:
            break
        j = cols.pop(drop)
        for q in parents[j]:
            children[q] -= 1
            if not children[q]:  # its last child went: the main may go
                removable[q] = True
        coef, r_inv, fitted, residuals = _least_squares(X_full.take(cols, axis=1), z)
        steps.append(EliminationStep(terms[j], p_value, float(residuals @ residuals)))
    spec = ModelSpec(tuple(terms[j] for j in cols), full_spec.response_power)
    return spec, tuple(steps)


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


def back_transform(z: float, power: float) -> tuple[float, bool]:
    """The reliability (0..100) of a transformed response z, its power-th root,
    and whether it was clamped: to 0 when z < 0 (no real root), or to 100."""
    value = 0.0 if z < 0.0 else z ** (1.0 / power)
    return min(value, 100.0), z < 0.0 or value > 100.0


def predict_response(fit_result: FitResult, point: Mapping[str, float]) -> PredictionResult:
    """Evaluate the fitted polynomial at actual-unit levels.

    The polynomial gives the transformed response; ``back_transform`` maps it
    back to the 0..100 reliability scale and flags a clamped value. Points
    outside the design's coded range are flagged as extrapolation; a
    non-finite level, or an int too large for a float, raises InputError
    naming its factor.
    """
    letters = sorted(fit_result.coded_ranges)
    missing = [l for l in letters if l not in point]
    if missing:
        raise InputError(f"prediction point lacks factors: {missing}")
    levels = []
    for letter in letters:
        try:
            level = float(point[letter])
        except OverflowError:  # an int too large for a float
            raise InputError(
                f"prediction point: factor {letter} level is too large for a float"
            ) from None
        if not math.isfinite(level):
            raise InputError(f"prediction point: factor {letter} level {level} is not finite")
        levels.append(level)
    coded = np.array([[fit_result.coding.code(l, v) for l, v in zip(letters, levels)]])
    lo, hi = np.array([fit_result.coded_ranges[l] for l in letters]).T
    extrapolated = bool(((coded < lo - 1e-9) | (coded > hi + 1e-9)).any())
    b = np.array([fit_result.coefficients[t] for t in fit_result.spec.terms])
    z = float(_columns(fit_result.spec, coded, letters)[0] @ b)
    value, clamped = back_transform(z, fit_result.spec.response_power)
    return PredictionResult(value, extrapolated, clamped)


# --- design generation --------------------------------------------------------

def _fraction_signs(k: int) -> np.ndarray:
    """Two-level factorial fraction of resolution >= V, first factor fastest."""
    base = k if k <= 4 else min(k - 1, 6)
    # row i holds the bits of i, lowest first, as -1/+1
    signs = np.where((np.arange(2 ** base)[:, None] >> np.arange(base)) & 1, 1.0, -1.0)
    if k <= 4:
        return signs
    if k <= 7:
        # one generator, the product of all base columns: resolution k
        return np.column_stack([signs, signs.prod(axis=1)])
    if k == 8:
        g = signs[:, 0] * signs[:, 1] * signs[:, 2] * signs[:, 3]
        h = signs[:, 0] * signs[:, 1] * signs[:, 4] * signs[:, 5]
        return np.column_stack([signs, g, h])
    raise InputError(f"factor count {k} outside the supported range 2..8")


def generate_ccd(
    letters: Sequence[str],
    coding: FactorCoding,
    n_center: int = DEFAULT_CENTER_RUNS,
    axial: float = DEFAULT_AXIAL,
) -> list[DesignRow]:
    """Central composite design: factorial fraction, axial pairs, center rows.

    The factorial block is a full two-level factorial up to four factors and
    a resolution-V (or better) regular fraction beyond; axial points sit at
    +/- ``axial`` in coded units. Responses are left unset. Run order equals
    standard order so generated designs are deterministic.
    """
    if not 2 <= len(letters) <= 8:
        raise InputError(f"factor count must be between 2 and 8, got {len(letters)}")
    if len(set(letters)) != len(letters):
        raise InputError("factor letters must be distinct")
    if n_center < 0:
        raise InputError("center-point count cannot be negative")
    if n_center > MAX_CENTER_RUNS:
        raise InputError(
            f"--center must be at most {MAX_CENTER_RUNS} center runs, got {n_center}"
        )
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
