"""Observation and design files, plus the bundled fixtures."""
import io

import numpy as np
import pytest

from hra_forge.dataset import (
    DesignRow,
    bundled_case_study,
    bundled_refit_comparison,
    bundled_reference_fit,
    bundled_table2,
    bundled_table4,
    load_design,
    load_observations,
    save_design,
    save_observations,
)
from hra_forge.errors import InputError
from hra_forge.psf import PSF_ORDER, PsfId

OBS_HEADER = (
    "id,available_time,stress,complexity,experience_training,"
    "procedures,ergonomics,fitness_for_duty,work_process,hep"
)


class TestBundledObservations:
    def test_counts(self):
        assert len(bundled_table2().instances) == 15
        assert len(bundled_case_study().instances) == 15

    def test_printed_hep_column(self):
        obs = bundled_table2()
        by_id = {i.id: float(i.observed_hep) for i in obs.instances}
        assert by_id["Ins 5"] == 0.2
        assert by_id["Ins 7"] == 0.03
        assert by_id["Ins 1"] == 0.155

    def test_reconciled_hep_column(self):
        obs = bundled_case_study()
        got = tuple(float(i.observed_hep) for i in obs.instances)
        assert got == (
            0.155, 0.132, 0.151, 0.046, 0.223, 0.098, 0.032, 0.136,
            0.165, 0.182, 0.112, 0.193, 0.172, 0.153, 0.164,
        )
        # the reconciled column is the observed column of the reference fit
        assert got == bundled_reference_fit()[0]

    def test_psf_columns_shared(self):
        a = bundled_table2()
        b = bundled_case_study()
        for x, y in zip(a.instances, b.instances):
            assert x.psfs.as_tuple() == y.psfs.as_tuple()

    def test_maxima(self):
        raw = bundled_table2().matrix(PSF_ORDER)
        assert tuple(raw.max(axis=0)) == (10.0, 5.0, 5.0, 3.0, 50.0, 10.0, 5.0, 5.0)

    def test_reference_fit_columns(self):
        observed, predicted = bundled_reference_fit()
        assert len(observed) == len(predicted) == 15
        assert observed[0] == 0.155
        assert predicted[0] == 0.134
        assert predicted[4] == 0.263

    def test_refit_comparison_columns(self):
        observed, before, after = bundled_refit_comparison()
        assert len(observed) == len(before) == len(after) == 15
        assert before == bundled_reference_fit()[1]
        assert after[0] == pytest.approx(0.141409178)


class TestBundledDesign:
    def test_shape(self):
        rows = bundled_table4()
        assert len(rows) == 60
        assert sorted(r.std_order for r in rows) == list(range(1, 61))
        assert sorted(r.run_order for r in rows) == list(range(1, 61))

    def test_known_row(self):
        rows = bundled_table4()
        first = rows[0]
        assert first.run_order == 1
        assert first.std_order == 22
        assert first.response == 83.47

    def test_center_replicates(self):
        rows = bundled_table4()
        from collections import Counter

        counts = Counter(tuple(sorted(r.levels.items())) for r in rows)
        assert max(counts.values()) == 6

    def test_letters(self):
        rows = bundled_table4()
        assert sorted(rows[0].levels) == list("ABCDEFGH")

    def test_responses_all_present(self):
        assert all(r.response is not None for r in bundled_table4())


class TestObservationIo:
    def test_roundtrip(self):
        obs = bundled_table2()
        buf = io.StringIO()
        save_observations(obs, buf)
        again = load_observations(buf.getvalue())
        assert len(again.instances) == 15
        for a, b in zip(obs.instances, again.instances):
            assert a.id == b.id
            assert a.psfs.as_tuple() == b.psfs.as_tuple()
            assert float(a.observed_hep) == float(b.observed_hep)

    def test_trials_column_optional(self):
        text = OBS_HEADER + ",trials\nI1,1,1,1,1,1,1,1,1,0.5,40\n"
        obs = load_observations(text)
        assert obs.instances[0].trials == 40
        buf = io.StringIO()
        save_observations(obs, buf)
        assert "trials" in buf.getvalue().splitlines()[0]

    def test_header_rejected(self):
        with pytest.raises(InputError) as err:
            load_observations("id,foo\nI1,1\n")
        assert "header" in str(err.value)

    def test_bad_cell_names_row_and_column(self):
        text = OBS_HEADER + "\nI1,1,1,1,1,1,1,1,abc,0.5\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        msg = str(err.value)
        assert "row 1" in msg and "work_process" in msg

    def test_hep_out_of_range(self):
        text = OBS_HEADER + "\nI1,1,1,1,1,1,1,1,1,1.5\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        assert "hep" in str(err.value)

    def test_duplicate_ids(self):
        row = "I1,1,1,1,1,1,1,1,1,0.5\n"
        with pytest.raises(InputError) as err:
            load_observations(OBS_HEADER + "\n" + row + row)
        assert "I1" in str(err.value)

    def test_short_row(self):
        with pytest.raises(InputError) as err:
            load_observations(OBS_HEADER + "\nI1,1,1,1\n")
        assert "row 1" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "1.5"])
    def test_trials_must_be_an_integer(self, cell):
        text = OBS_HEADER + f",trials\nI1,1,1,1,1,1,1,1,1,0.5,{cell}\n"
        with pytest.raises(InputError) as err:
            load_observations(text)
        msg = str(err.value)
        assert "row 1" in msg and "'trials'" in msg


class TestDesignIo:
    def test_roundtrip(self):
        rows = bundled_table4()
        buf = io.StringIO()
        save_design(rows, buf)
        again = load_design(buf.getvalue())
        assert len(again) == 60
        for a, b in zip(rows, again):
            assert a.std_order == b.std_order
            assert a.run_order == b.run_order
            assert a.levels == b.levels
            assert a.response == b.response

    def test_empty_response_cell(self):
        text = "std,run,A,B,reliability\n1,1,0.2,0.2,\n2,2,0.8,0.2,55.5\n"
        rows = load_design(text)
        assert rows[0].response is None
        assert rows[1].response == 55.5

    def test_letter_subset(self):
        text = "std,run,A,C,H,reliability\n1,1,0.2,0.5,0.8,\n"
        rows = load_design(text)
        assert sorted(rows[0].levels) == ["A", "C", "H"]

    @pytest.mark.parametrize("column", ["std", "run"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400", "1.5"])
    def test_orders_must_be_integers(self, column, cell):
        cells = {"std": "1", "run": "1", column: cell}
        text = f"std,run,A,reliability\n{cells['std']},{cells['run']},0.2,50\n"
        with pytest.raises(InputError) as err:
            load_design(text)
        msg = str(err.value)
        assert "row 1" in msg and repr(column) in msg

    def test_integral_float_order_accepted(self):
        rows = load_design("std,run,A,reliability\n2.0,3,0.2,50\n")
        assert (rows[0].std_order, rows[0].run_order) == (2, 3)

    def test_unknown_letter_rejected(self):
        with pytest.raises(InputError):
            load_design("std,run,A,Q,reliability\n1,1,0.2,0.2,\n")

    def test_path_with_comma(self, tmp_path):
        path = tmp_path / "dir,x" / "t4.csv"
        path.parent.mkdir()
        save_design(bundled_table4(), path)
        for source in (path, str(path)):
            rows = load_design(source)
            assert [r.levels for r in rows] == [r.levels for r in bundled_table4()]

    def test_none_response_written_empty(self):
        rows = [DesignRow(1, 1, {"A": 0.5}, None)]
        buf = io.StringIO()
        save_design(rows, buf)
        assert buf.getvalue().splitlines()[1].endswith(",")


class TestNormalizeObservations:
    def test_unit_scale(self):
        X, _ = bundled_table2().normalized(PSF_ORDER)
        assert X.max(axis=0).tolist() == [1.0] * 8
        assert tuple(X[0]) == (0.01, 0.4, 1.0, 1.0, 0.4, 0.05, 1.0, 0.1)

    def test_maxima_recorded(self):
        _, maxima = bundled_table2().normalized(PSF_ORDER)
        assert maxima[PsfId.Procedures] == 50.0

    def test_active_subset(self):
        active = (PsfId.Stress, PsfId.Procedures)
        X, maxima = bundled_table2().normalized(active)
        full, _ = bundled_table2().normalized(PSF_ORDER)
        assert X.shape == (15, 2)
        assert list(maxima) == list(active)
        assert np.array_equal(X, full[:, [1, 4]])
