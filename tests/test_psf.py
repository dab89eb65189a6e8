"""Probability algebra, multiplier lookup, and normalization."""
import itertools
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hra_forge.dataset import Instance, ObservationSet
from hra_forge.errors import InputError, UnknownLevelError
from hra_forge.psf import (
    FAILURE_CERTAIN,
    PSF_ORDER,
    ErrorTally,
    Mode,
    MultiplierRow,
    MultiplierTable,
    Probability,
    PsfId,
    PsfVector,
    bundled_multiplier_tables,
    composite_hep,
    format_multiplier_config,
    lookup_multiplier,
    nominal_hep,
    parse_multiplier_config,
    resolve_levels,
    total_psf_impact,
)


def oracle_composite(n: float, t: float) -> float:
    # direct transcription of the saturating adjustment formula
    return (n * t) / (n * (t - 1.0) + 1.0)


class TestNominal:
    def test_ratio(self):
        assert float(nominal_hep(ErrorTally(1, 100))) == 0.01
        assert float(nominal_hep(ErrorTally(10, 20))) == 0.5

    def test_zero_occurred(self):
        assert float(nominal_hep(ErrorTally(0, 5))) == 0.0

    def test_bounds(self):
        with pytest.raises(InputError):
            ErrorTally(3, 2)
        with pytest.raises(InputError):
            ErrorTally(1, 0)
        with pytest.raises(InputError):
            ErrorTally(-1, 2)


class TestCompositeAlgebra:
    def test_against_oracle_1000_pairs(self):
        # deterministic sweep over the operating region
        import random

        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.uniform(1e-9, 1.0)
            t = rng.uniform(1e-6, 1e4)
            got = float(composite_hep(n, t))
            assert got == pytest.approx(oracle_composite(n, t), abs=1e-12)

    def test_identity_multiplier(self):
        for n in (0.0, 1e-9, 0.01, 0.5, 0.9999, 1.0):
            assert float(composite_hep(n, 1.0)) == n

    def test_frozen_examples(self):
        assert float(composite_hep(0.01, 10.0)) == 0.09174311926605505
        nominal = float(nominal_hep(ErrorTally(1, 100)))
        assert float(composite_hep(nominal, 25.0)) == 0.20161290322580647

    @given(
        n=st.floats(min_value=1e-12, max_value=1.0),
        t=st.floats(min_value=1e-9, max_value=1e6),
    )
    def test_result_is_probability(self, n, t):
        value = float(composite_hep(n, t))
        assert 0.0 <= value <= 1.0

    @given(
        n=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        t1=st.floats(min_value=1e-3, max_value=1e3),
        t2=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_monotone_in_multiplier(self, n, t1, t2):
        lo, hi = sorted((t1, t2))
        assert float(composite_hep(n, lo)) <= float(composite_hep(n, hi)) + 1e-15

    def test_saturates_below_one(self):
        assert float(composite_hep(0.5, 1e12)) <= 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            composite_hep(1.5, 2.0)
        with pytest.raises(InputError):
            composite_hep(0.5, 0.0)
        with pytest.raises(InputError):
            composite_hep(0.5, -3.0)


class TestTotalImpact:
    def test_product(self):
        v = PsfVector.from_sequence([10, 5, 5, 3, 0.1, 1, 1, 1])
        assert total_psf_impact(v) == 75.0

    def test_all_nominal(self):
        v = PsfVector.from_sequence([1.0] * 8)
        assert total_psf_impact(v) == 1.0

    def test_positive_required(self):
        with pytest.raises(InputError):
            PsfVector.from_sequence([0.0, 1, 1, 1, 1, 1, 1, 1])


class TestPsfVector:
    def test_stored_in_psf_order(self):
        v = PsfVector(dict(zip(reversed(PSF_ORDER), (8, 7, 6, 5, 4, 3, 2, 1))))
        assert v.as_tuple() == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        assert all(type(x) is float for x in v.as_tuple())
        assert [v[p] for p in PSF_ORDER] == list(v.as_tuple())
        assert list(v.values.items()) == list(zip(PSF_ORDER, v.as_tuple()))
        with pytest.raises(KeyError):
            v["A"]

    @pytest.mark.parametrize("value", [99.0, -1.0])
    def test_values_view_is_read_only(self, value):
        v = PsfVector.from_sequence([1.0] * 8)
        with pytest.raises(TypeError):
            v.values[PsfId.Stress] = value
        with pytest.raises(AttributeError):
            v.multipliers = (value,) * 8
        assert v[PsfId.Stress] == 1.0 and v.as_tuple() == (1.0,) * 8

    def test_equal_vectors_hash_equal(self):
        a = PsfVector.from_sequence([10, 5, 5, 3, 0.1, 1, 1, 1])
        b = PsfVector(dict(zip(PSF_ORDER, (10.0, 5.0, 5.0, 3.0, 0.1, 1.0, 1.0, 1.0))))
        assert a == b and hash(a) == hash(b)
        assert a != PsfVector.from_sequence([10, 5, 5, 3, 0.1, 1, 1, 2])
        assert len({a, b}) == 1

    def test_psf_id_hashes_by_identity(self):
        assert all(hash(p) == object.__hash__(p) for p in PSF_ORDER)
        assert {p: p.letter for p in PSF_ORDER}[PsfId.Stress] == "B"


class TestProbability:
    def test_range(self):
        with pytest.raises(InputError):
            Probability(-0.1)
        with pytest.raises(InputError):
            Probability(1.0001)
        assert float(Probability(0.0)) == 0.0
        assert float(Probability(1.0)) == 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Probability(float("nan"))


@dataclass(frozen=True, slots=True)
class OracleProbability:
    """The dataclass-generated Probability constructor with its validating
    __post_init__, kept as the reference for the single-write __init__."""

    value: float

    def __post_init__(self):
        v = self.value
        if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
            raise InputError(f"probability must be in [0, 1], got {v!r}")
        object.__setattr__(self, "value", float(v))


@dataclass(frozen=True)
class OracleErrorTally:
    """The dataclass-generated ErrorTally constructor with its validating
    __post_init__, kept as the reference for the single-write __init__."""

    occurred: int
    potential: int

    def __post_init__(self):
        if not (isinstance(self.occurred, int) and isinstance(self.potential, int)):
            raise InputError("error tally counts must be integers")
        if self.potential < 1:
            raise InputError(f"potential error count must be >= 1, got {self.potential}")
        if not 0 <= self.occurred <= self.potential:
            raise InputError(
                f"occurred count {self.occurred} must be in [0, {self.potential}]"
            )


_CONSTRUCTOR_POOL = [
    True, False, 1, 0, -0.0, 0.25, 1.0, 1.0000000000000002, -1e-300,
    math.nan, math.inf, -math.inf, np.float64(0.5), np.int64(1), "0.5", None,
]
_COUNT_POOL = _CONSTRUCTOR_POOL + [2, 3, 7, 2.0, 1.5, -1, -5]


def _constructed(cls, *args):
    """("ok", each field's type and repr, hash) or ("error", message)."""
    try:
        obj = cls(*args)
    except InputError as exc:
        return "error", str(exc)
    stored = tuple((type(v), repr(v)) for v in (getattr(obj, f.name) for f in fields(obj)))
    return "ok", stored, hash(obj)


class TestConstructorsMatchOracles:
    @pytest.mark.parametrize("value", _CONSTRUCTOR_POOL, ids=repr)
    def test_probability(self, value):
        assert _constructed(Probability, value) == _constructed(OracleProbability, value)

    def test_error_tally(self):
        for occurred, potential in itertools.product(_COUNT_POOL, repeat=2):
            assert _constructed(ErrorTally, occurred, potential) == _constructed(
                OracleErrorTally, occurred, potential
            ), (occurred, potential)

    def test_keyword_construction_and_replace(self):
        assert Probability(value=0.5) == replace(Probability(0.1), value=0.5)
        assert ErrorTally(potential=4, occurred=1) == replace(ErrorTally(0, 4), occurred=1)
        with pytest.raises(InputError, match=re.escape("must be in [0, 4]")):
            replace(ErrorTally(0, 4), occurred=5)

    def test_values_are_frozen_and_slotted(self):
        for obj, name in ((Probability(0.5), "value"), (ErrorTally(1, 2), "occurred")):
            assert not hasattr(obj, "__dict__")
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)


class TestHugeIntegers:
    """An int too large for a float is rejected with the usual message, not
    the OverflowError that converting it to a float raises."""

    @pytest.mark.parametrize("huge", [2**1100, -(2**1100)], ids=["2**1100", "-2**1100"])
    def test_probability(self, huge):
        with pytest.raises(InputError, match=re.escape(f"probability must be in [0, 1], got {huge!r}")):
            Probability(huge)

    @pytest.mark.parametrize("huge", [2**1100, -(2**1100)], ids=["2**1100", "-2**1100"])
    def test_composite_hep(self, huge):
        with pytest.raises(InputError, match=re.escape(f"not a finite positive number: {huge}")):
            composite_hep(Probability(0.5), huge)

    def test_multipliers(self):
        with pytest.raises(InputError, match="multiplier for AvailableTime must be a positive real"):
            PsfVector.from_sequence([2**1100] + [1.0] * 7)
        with pytest.raises(InputError, match="action multiplier for level 'x'"):
            MultiplierRow("x", 2**1100, 1.0)

    @pytest.mark.parametrize("huge", [2**1100, -(2**1100)], ids=["2**1100", "-2**1100"])
    def test_resolve_levels(self, huge):
        with pytest.raises(InputError, match=re.escape(f"multiplier for Stress must be a positive real, got {huge!r}")):
            resolve_levels({}, {PsfId.Stress: huge}, Mode.Action)

    @pytest.mark.parametrize("huge", [2**1100, -(2**1100)], ids=["2**1100", "-2**1100"])
    def test_composite_hep_nominal(self, huge):
        with pytest.raises(InputError, match=re.escape(f"nominal HEP must be in [0, 1], got {huge}")):
            composite_hep(huge, 1.0)


class TestLookup:
    def test_bundled_labels(self):
        tables = bundled_multiplier_tables()
        time = tables[PsfId.AvailableTime]
        assert lookup_multiplier(time, "Expansive time", Mode.Diagnosis) == 0.01
        assert lookup_multiplier(time, "Nominal time", Mode.Action) == 1.0
        assert lookup_multiplier(time, "Extra time", Mode.Action) == 0.1
        assert lookup_multiplier(time, "Barely adequate time", Mode.Diagnosis) == 10.0

    def test_failure_sentinel(self):
        tables = bundled_multiplier_tables()
        got = lookup_multiplier(
            tables[PsfId.AvailableTime], "Inadequate Time", Mode.Action
        )
        assert got is FAILURE_CERTAIN

    def test_insufficient_information_is_nominal(self):
        tables = bundled_multiplier_tables()
        for psf, table in tables.items():
            for mode in Mode:
                assert lookup_multiplier(table, "Insufficient information", mode) == 1.0

    def test_case_and_whitespace_insensitive(self):
        tables = bundled_multiplier_tables()
        time = tables[PsfId.AvailableTime]
        assert lookup_multiplier(time, "  expansive TIME ", Mode.Action) == 0.01

    def test_unknown_label(self):
        tables = bundled_multiplier_tables()
        with pytest.raises(UnknownLevelError) as err:
            lookup_multiplier(tables[PsfId.AvailableTime], "panicked", Mode.Action)
        assert "panicked" in str(err.value)

    def test_bundled_covers_available_time_only(self):
        # only one PSF ships with multipliers; the rest are user config
        tables = bundled_multiplier_tables()
        assert set(tables) == {PsfId.AvailableTime}
        assert [r.label for r in tables[PsfId.AvailableTime].rows] == [
            "Inadequate Time",
            "Barely adequate time",
            "Nominal time",
            "Extra time",
            "Expansive time",
            "Insufficient information",
        ]


class TestResolveLevels:
    def test_defaults_to_nominal(self):
        tables = bundled_multiplier_tables()
        v = resolve_levels(tables, {}, Mode.Action)
        assert v.as_tuple() == (1.0,) * 8

    def test_mixed_labels_and_numbers(self):
        tables = bundled_multiplier_tables()
        v = resolve_levels(
            tables,
            {PsfId.AvailableTime: "Expansive time", PsfId.Stress: 2.0},
            Mode.Diagnosis,
        )
        assert v.as_tuple()[0] == 0.01
        assert v.as_tuple()[1] == 2.0

    def test_failure_short_circuits(self):
        tables = bundled_multiplier_tables()
        got = resolve_levels(
            tables, {PsfId.AvailableTime: "Inadequate Time"}, Mode.Action
        )
        assert got is FAILURE_CERTAIN

    def test_label_without_table_rejected(self):
        tables = bundled_multiplier_tables()
        with pytest.raises(InputError):
            resolve_levels(tables, {PsfId.Stress: "Extreme"}, Mode.Action)

    def test_user_configured_extra_table(self):
        text = (
            "psf_letter,level_label,action_multiplier,diagnosis_multiplier\n"
            "B,Extreme,5,5\n"
            "B,High,2,2\n"
            "B,Nominal,1,1\n"
        )
        tables = dict(bundled_multiplier_tables())
        tables.update(parse_multiplier_config(text))
        v = resolve_levels(tables, {PsfId.Stress: "Extreme"}, Mode.Action)
        assert v.as_tuple()[1] == 5.0


class TestConfigRoundtrip:
    def test_roundtrip(self):
        tables = bundled_multiplier_tables()
        text = format_multiplier_config(tables)
        again = parse_multiplier_config(text)
        for psf in tables:
            assert [r.label for r in tables[psf].rows] == [
                r.label for r in again[psf].rows
            ]
            for a, b in zip(tables[psf].rows, again[psf].rows):
                assert a.action == b.action
                assert a.diagnosis == b.diagnosis

    def test_duplicate_label_rejected(self):
        rows = (
            MultiplierRow("High", 2.0, 2.0),
            MultiplierRow("high", 3.0, 3.0),
        )
        with pytest.raises(InputError):
            MultiplierTable(PsfId.Stress, rows)

    def test_bad_multiplier_token(self):
        with pytest.raises(InputError):
            parse_multiplier_config("A,Weird,abc,1\n")

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("B,High,2", "multiplier config line 4: expected 4 comma-separated fields"),
            ("B,High,two,2", "multiplier config line 4: expected a number or FAIL, got 'two'"),
        ],
        ids=["short-row", "non-numeric"],
    )
    def test_messages_count_physical_lines(self, bad, message):
        # the header (line 1) and the blank line (line 3) both count
        text = (
            "psf_letter,level_label,action_multiplier,diagnosis_multiplier\n"
            "B,Extreme,5,5\n"
            "\n"
            f"{bad}\n"
        )
        with pytest.raises(InputError, match="^" + re.escape(message)):
            parse_multiplier_config(text)


def observation_set(rows) -> ObservationSet:
    """Instances with the given raw multiplier rows (all eight PSFs) and HEP 0.1."""
    return ObservationSet.from_instances(
        tuple(
            Instance(f"i{k}", PsfVector.from_sequence(row), Probability(0.1))
            for k, row in enumerate(rows)
        )
    )


class TestNormalize:
    def test_maxima_and_scaling(self):
        obs = observation_set([[10, 5, 5, 3, 50, 10, 5, 5], [1, 1, 1, 1, 1, 1, 1, 1]])
        X, maxima = obs.normalized(PSF_ORDER)
        assert maxima == dict(zip(PSF_ORDER, (10.0, 5.0, 5.0, 3.0, 50.0, 10.0, 5.0, 5.0)))
        assert tuple(X[0]) == (1.0,) * 8
        assert tuple(X[1]) == (0.1, 0.2, 0.2, 1 / 3, 0.02, 0.1, 0.2, 0.2)

    def test_idempotent(self):
        obs = observation_set([[2, 4, 1, 3, 5, 2, 1, 1], [1, 2, 2, 1, 10, 4, 5, 3]])
        once, _ = obs.normalized(PSF_ORDER)
        twice, maxima = observation_set(once).normalized(PSF_ORDER)
        assert np.array_equal(once, twice)
        assert all(m == 1.0 for m in maxima.values())

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=1e-3, max_value=1e3),
                min_size=8,
                max_size=8,
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_unit_interval(self, raw):
        X, _ = observation_set(raw).normalized(PSF_ORDER)
        assert ((0.0 < X) & (X <= 1.0)).all()
        # every column attains its maximum
        for j in range(8):
            assert math.isclose(X[:, j].max(), 1.0)

    def test_empty_rejected(self):
        with pytest.raises(InputError, match="empty observation set"):
            ObservationSet.from_instances(()).normalized(PSF_ORDER)


class TestPsfIdentity:
    def test_letters(self):
        assert [p.letter for p in PSF_ORDER] == list("ABCDEFGH")
        assert PsfId.from_letter("E") is PsfId.Procedures
        assert PsfId.from_column("stress") is PsfId.Stress

    def test_unknown_letter(self):
        with pytest.raises(InputError):
            PsfId.from_letter("Z")

    def test_failure_certain_is_not_numeric(self):
        assert FAILURE_CERTAIN != 1
        assert not isinstance(FAILURE_CERTAIN, float)
