"""Performance shaping factor taxonomy and the closed-form HEP algebra.

A human error probability (HEP) starts from a nominal error rate (occurred
errors over potential errors) and is adjusted by eight multiplicative
performance shaping factors (PSFs). The adjustment saturates so the result
stays a probability:

    HEP = nominal * total / (nominal * (total - 1) + 1)

where ``total`` is the product of the eight PSF multipliers. Multiplier
values for a given situation come from level lookup tables; the bundled
table covers available time, the rest are user-supplied configuration.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import InputError, UnknownLevelError
from .ioutil import bundled_text, csv_text, load


class PsfId(enum.Enum):
    """The eight performance shaping factors, lettered A..H in column order."""

    AvailableTime = ("A", "available_time")
    Stress = ("B", "stress")
    Complexity = ("C", "complexity")
    ExperienceTraining = ("D", "experience_training")
    Procedures = ("E", "procedures")
    Ergonomics = ("F", "ergonomics")
    FitnessForDuty = ("G", "fitness_for_duty")
    WorkProcess = ("H", "work_process")

    @property
    def letter(self) -> str:
        return self.value[0]

    @property
    def column(self) -> str:
        """CSV column name for this PSF."""
        return self.value[1]

    @classmethod
    def from_letter(cls, letter: str) -> "PsfId":
        for psf in cls:
            if psf.letter == letter:
                return psf
        raise InputError(f"unknown PSF letter {letter!r} (expected A..H)")

    @classmethod
    def from_column(cls, column: str) -> "PsfId":
        for psf in cls:
            if psf.column == column:
                return psf
        raise InputError(f"unknown PSF column {column!r}")

    def __repr__(self):
        return f"PsfId.{self.name}"

    # members are singletons compared by identity, so the C-level identity
    # hash is consistent with equality and skips Enum's Python-level hash
    __hash__ = object.__hash__


#: All eight PSFs in letter order A..H.
PSF_ORDER: tuple[PsfId, ...] = tuple(PsfId)

assert len(PSF_ORDER) == 8
assert [p.letter for p in PSF_ORDER] == list("ABCDEFGH")

# position of each PSF in PSF_ORDER
_POSITION: dict[PsfId, int] = {psf: i for i, psf in enumerate(PSF_ORDER)}


class Mode(enum.Enum):
    """Task mode selecting which multiplier column applies."""

    Action = "action"
    Diagnosis = "diagnosis"


class _FailureCertain:
    """Sentinel for table rows meaning "failure is certain" (HEP = 1).

    Deliberately not the number 1: a multiplier of 1 leaves the nominal HEP
    unchanged, while this sentinel forces HEP = 1. Callers must short-circuit.
    """

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "FAILURE_CERTAIN"


FAILURE_CERTAIN = _FailureCertain()


def _finite(x) -> bool:
    """``math.isfinite``, but False for an int too large for a float, where
    ``math.isfinite`` raises OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True, slots=True, init=False)
class Probability:
    """A real number in [0, 1], validated at construction."""

    value: float

    def __init__(self, value: float):
        # the range test alone rejects nan and +-inf, and compares an int too
        # large for a float exactly
        if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
            raise InputError(f"probability must be in [0, 1], got {value!r}")
        _set_probability(self, float(value))

    def __float__(self):
        return self.value


@dataclass(frozen=True, slots=True, init=False)
class ErrorTally:
    """Occurred versus potential error counts for one task."""

    occurred: int
    potential: int

    def __init__(self, occurred: int, potential: int):
        if not (isinstance(occurred, int) and isinstance(potential, int)):
            raise InputError("error tally counts must be integers")
        if potential < 1:
            raise InputError(f"potential error count must be >= 1, got {potential}")
        if not 0 <= occurred <= potential:
            raise InputError(f"occurred count {occurred} must be in [0, {potential}]")
        _set_occurred(self, occurred)
        _set_potential(self, potential)


# The slot setters, bound once: each constructor writes each slot once, past
# the frozen __setattr__, after its checks.
_set_probability = Probability.__dict__["value"].__set__
_set_occurred = ErrorTally.__dict__["occurred"].__set__
_set_potential = ErrorTally.__dict__["potential"].__set__


@dataclass(frozen=True, slots=True, init=False)
class PsfVector:
    """One multiplier per PSF; all eight present, every value positive.

    Built from a mapping of every PSF to its multiplier, and stored as one
    tuple in ``PSF_ORDER``, so equal vectors compare and hash equal.
    """

    multipliers: tuple[float, ...]

    def __init__(self, values: Mapping[PsfId, float]):
        vals = dict(values)
        missing = [p.letter for p in PSF_ORDER if p not in vals]
        if missing:
            raise InputError(f"PSF vector missing factors: {', '.join(missing)}")
        extra = [k for k in vals if k not in PSF_ORDER]
        if extra:
            raise InputError(f"PSF vector has unknown keys: {extra}")
        for psf, v in vals.items():
            if not (isinstance(v, (int, float)) and _finite(v) and v > 0):
                raise InputError(
                    f"multiplier for {psf.name} must be a positive real, got {v!r}"
                )
        object.__setattr__(self, "multipliers", tuple(float(vals[p]) for p in PSF_ORDER))

    @property
    def values(self) -> Mapping[PsfId, float]:
        """A read-only mapping of each PSF to its multiplier, in ``PSF_ORDER``."""
        return MappingProxyType(dict(zip(PSF_ORDER, self.multipliers)))

    def __getitem__(self, psf: PsfId) -> float:
        return self.multipliers[_POSITION[psf]]

    def as_tuple(self) -> tuple[float, ...]:
        """Values in letter order A..H."""
        return self.multipliers

    @classmethod
    def from_sequence(cls, seq: Sequence[float]) -> "PsfVector":
        if len(seq) != len(PSF_ORDER):
            raise InputError(f"expected {len(PSF_ORDER)} multipliers, got {len(seq)}")
        return cls(dict(zip(PSF_ORDER, seq)))


@dataclass(frozen=True)
class MultiplierRow:
    """One level of a multiplier table."""

    label: str
    action: object  # positive float or FAILURE_CERTAIN
    diagnosis: object

    def __post_init__(self):
        for field in ("action", "diagnosis"):
            v = getattr(self, field)
            if v is FAILURE_CERTAIN:
                continue
            if not (isinstance(v, (int, float)) and _finite(v) and v > 0):
                raise InputError(
                    f"{field} multiplier for level {self.label!r} must be a "
                    f"positive real or the FAIL sentinel, got {v!r}"
                )


@dataclass(frozen=True)
class MultiplierTable:
    """Level-label multiplier lookup for one PSF."""

    psf: PsfId
    rows: tuple[MultiplierRow, ...]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = row.label.strip().lower()
            if key in seen:
                raise InputError(
                    f"duplicate level label {row.label!r} in table for {self.psf.name}"
                )
            seen.add(key)


def nominal_hep(tally: ErrorTally) -> Probability:
    """Nominal HEP: occurred errors over potential errors."""
    return Probability(tally.occurred / tally.potential)


def total_psf_impact(v: PsfVector) -> float:
    """Product of the eight PSF multipliers."""
    return math.prod(v.as_tuple())


def composite_hep(nominal, psf_total: float) -> Probability:
    """Adjust a nominal HEP by the total PSF impact, saturating below 1.

    composite = n*t / (n*(t-1) + 1). The identity composite(n, 1) = n holds
    exactly, and the result stays in [0, 1] for any positive impact.
    """
    n = float(nominal) if _finite(nominal) else nominal  # nan or a huge int fails below
    if not 0.0 <= n <= 1.0:
        raise InputError(f"nominal HEP must be in [0, 1], got {n}")
    if not (_finite(psf_total) and psf_total > 0):
        raise InputError(
            "total PSF impact (the product of the multipliers) is not a finite "
            f"positive number: {psf_total}"
        )
    # denominator written as numerator plus a nonnegative term so rounding
    # can never push the ratio above 1 (n*(t-1)+1 cancels badly for tiny t)
    num = n * psf_total
    return Probability(num / (num + (1.0 - n)))


def lookup_multiplier(table: MultiplierTable, level_label: str, mode: Mode):
    """Multiplier for a named level, or FAILURE_CERTAIN.

    Label comparison is case-insensitive on the trimmed text.
    """
    key = level_label.strip().lower()
    for row in table.rows:
        if row.label.strip().lower() == key:
            return row.action if mode is Mode.Action else row.diagnosis
    raise UnknownLevelError(table.psf.name, level_label)


# --- multiplier configuration files ----------------------------------------

_CONFIG_HEADER = "psf_letter,level_label,action_multiplier,diagnosis_multiplier"
_FAIL_TOKEN = "FAIL"


def _parse_multiplier(token: str, where: str):
    token = token.strip()
    if token == _FAIL_TOKEN:
        return FAILURE_CERTAIN
    try:
        return float(token)
    except ValueError:
        raise InputError(f"{where}: expected a number or {_FAIL_TOKEN}, got {token!r}") from None


def parse_multiplier_config(text: str) -> dict[PsfId, MultiplierTable]:
    """Parse multiplier tables from their four-field text format.

    Records are ``psf_letter,level_label,action_multiplier,diagnosis_multiplier``
    with ``FAIL`` as the failure-certain sentinel. A leading header line equal
    to the field names is permitted and skipped. Blank lines are ignored.
    """
    grouped: dict[PsfId, list[MultiplierRow]] = {}
    # not ioutil.csv_rows: it drops blank lines, so its rows lose the
    # physical line numbers these messages give
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line == _CONFIG_HEADER:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 4:
            raise InputError(
                f"multiplier config line {lineno}: expected 4 comma-separated "
                f"fields ({_CONFIG_HEADER}), got {len(parts)}"
            )
        psf = PsfId.from_letter(parts[0])
        where = f"multiplier config line {lineno}"
        row = MultiplierRow(
            label=parts[1],
            action=_parse_multiplier(parts[2], where),
            diagnosis=_parse_multiplier(parts[3], where),
        )
        grouped.setdefault(psf, []).append(row)
    return {psf: MultiplierTable(psf, tuple(rows)) for psf, rows in grouped.items()}


def load_multiplier_config(path) -> dict[PsfId, MultiplierTable]:
    """Load multiplier tables from a file path."""
    return load(path, parse_multiplier_config)


def format_multiplier_config(tables: Mapping[PsfId, MultiplierTable]) -> str:
    def multiplier(value) -> str:
        return _FAIL_TOKEN if value is FAILURE_CERTAIN else f"{value:g}"

    return csv_text(_CONFIG_HEADER.split(","), (
        [psf.letter, row.label, multiplier(row.action), multiplier(row.diagnosis)]
        for psf in PSF_ORDER if psf in tables
        for row in tables[psf].rows
    ))


def bundled_multiplier_tables() -> dict[PsfId, MultiplierTable]:
    """The bundled available-time multiplier table.

    Levels for the other seven PSFs are deployment-specific and must be
    supplied by configuration; absent a table, callers treat a factor as
    nominal (multiplier 1). The "Insufficient information" level is an alias
    for nominal and is stored resolved to 1.
    """
    return parse_multiplier_config(bundled_text("multipliers.csv"))


def resolve_levels(
    tables: Mapping[PsfId, MultiplierTable],
    assignments: Mapping[PsfId, object],
    mode: Mode,
):
    """Build a PsfVector from per-PSF level labels or direct multipliers.

    Each assignment value is either a number (used directly) or a level label
    resolved through that PSF's table. Unassigned PSFs default to nominal
    (multiplier 1). Returns FAILURE_CERTAIN if any resolved level carries the
    failure-certain sentinel.
    """
    values: dict[PsfId, float] = {psf: 1.0 for psf in PSF_ORDER}
    for psf, given in assignments.items():
        if isinstance(given, (int, float)):
            # an int too large for a float reaches PsfVector's check as it is
            values[psf] = float(given) if _finite(given) else given
            continue
        table = tables.get(psf)
        if table is None:
            raise InputError(
                f"no multiplier table configured for {psf.name}; "
                f"pass a numeric multiplier instead of a level label"
            )
        mult = lookup_multiplier(table, str(given), mode)
        if mult is FAILURE_CERTAIN:
            return FAILURE_CERTAIN
        values[psf] = float(mult)
    return PsfVector(values)
