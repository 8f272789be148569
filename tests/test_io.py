"""On-disk formats: determinism, round trips, and file layouts."""

import dataclasses
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from mfglab.carleman import CarlemanReport, LemmaReport
from mfglab.grid import Prism, make_grid
from mfglab.io import (
    _write_array_csv,
    fmt,
    load_field_csv,
    load_grid_json,
    save_carleman_family,
    save_field_csv,
    save_grid_json,
    save_history_csv,
    save_lemma_reports,
    save_provenance,
    save_sweep_report,
    save_triple_dir,
    stability_params_to_dict,
)
from mfglab.kernels import Kernel
from mfglab.stability import SweepReport, select_parameters

from conftest import PRISM, KERNEL

PARAMS = select_parameters(Fraction(1, 2), Fraction(1, 5), PRISM)


class TestFmt:
    def test_shortest_round_trip(self):
        for x in (0.1, 1.0 / 3.0, -2.5, 1e-17, 6.02e23, 0.0, -0.0):
            assert float(fmt(x)) == x

    def test_integers_stay_short(self):
        assert fmt(1.0) == "1"
        assert fmt(-4.0) == "-4"


class TestFieldCsv:
    @pytest.fixture()
    def grid(self):
        return make_grid(PRISM, 9, 9)

    @pytest.fixture()
    def field(self, grid):
        rng = np.random.default_rng(3)
        return rng.standard_normal(grid.shape)

    def test_round_trip_is_bit_exact(self, grid, field, tmp_path):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        back = load_field_csv(grid, path)
        np.testing.assert_array_equal(back, field)

    def test_rewrite_is_byte_identical(self, field, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save_field_csv(field, p1)
        save_field_csv(field, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_two_dimensional_round_trip(self, tmp_path):
        g = make_grid(Prism(1.0, 2.0, (0.5,), 1.0), (5, 7), 5)
        rng = np.random.default_rng(4)
        field = rng.standard_normal(g.shape)
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        np.testing.assert_array_equal(load_field_csv(g, path), field)

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 4, 5), (2, 3, 2, 4)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bytes_equal_one_format_per_entry(self, shape, order, tmp_path):
        # the writer formats a line of the last axis at a time; its bytes are
        # those of one "%d,"... "%.17g" format per entry in C order
        rng = np.random.default_rng(5)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        values.flat[:3] = (-0.0, 1e300, 5e-324)
        values = np.asarray(values, order=order)
        names = [f"i{a}" for a in range(len(shape))]
        path = tmp_path / "a.csv"
        _write_array_csv(str(path), names, values)
        row = "%d," * len(shape) + "%.17g\n"
        want = ",".join(names + ["value"]) + "\n" + "".join(
            row % (*idx, values[idx]) for idx in np.ndindex(shape)
        )
        assert path.read_bytes() == want.encode()
        for special in ("-0", "1.0000000000000001e+300", "4.9406564584124654e-324"):
            assert f",{special}\n" in want

    def test_column_count_checked(self, grid, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("i0,j,extra,value\n")
        with pytest.raises(ValueError, match="expected 3 columns, found 4"):
            load_field_csv(grid, path)

    def test_missing_rows_rejected(self, grid, field, tmp_path):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:72])  # header and 71 of the 81 nodes
        with pytest.raises(ValueError, match=r"u\.csv: node \(7, 8\) is never set"):
            load_field_csv(grid, path)

    @pytest.mark.parametrize("row", ["-1,0,5.0", "0,9,5.0"])
    def test_index_outside_the_grid_rejected(self, grid, field, tmp_path, row):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(ValueError, match=r"u\.csv: index .* outside the grid shape \(9, 9\)"):
            load_field_csv(grid, path)

    @pytest.mark.parametrize("row, found", [("2,1", 2), ("2,1,0,5.0", 4)])
    def test_row_field_count_checked(self, grid, field, tmp_path, row, found):
        # a short row would read its time index as the value
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(
            ValueError, match=rf"u\.csv: expected 3 fields, found {found} in row 83"
        ):
            load_field_csv(grid, path)

    @pytest.mark.parametrize("row", ["x,1,2.0", "2,1,abc"])
    def test_non_numeric_field_rejected(self, grid, field, tmp_path, row):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path, "a") as fh:
            fh.write(row + "\n")
        with pytest.raises(
            ValueError, match=r"u\.csv: non-numeric index or value .* in row 83"
        ):
            load_field_csv(grid, path)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_rejected(self, grid, field, tmp_path, value):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path, "a") as fh:
            fh.write(f"2,1,{value}\n")
        with pytest.raises(ValueError, match=rf"u\.csv: non-finite value {value} in row 83"):
            load_field_csv(grid, path)

    def test_node_set_twice_rejected(self, grid, field, tmp_path):
        path = str(tmp_path / "u.csv")
        save_field_csv(field, path)
        with open(path, "a") as fh:
            fh.write("4,2,5.0\n")
        with pytest.raises(
            ValueError, match=r"u\.csv: node \(4, 2\) set a second time in row 83"
        ):
            load_field_csv(grid, path)


class TestGridJson:
    @pytest.mark.parametrize(
        "prism, nx, nt",
        [(PRISM, 17, 33), (Prism(1.0, 2.0, (0.75,), 2.0), (9, 5), 9)],
        ids=["1d", "2d"],
    )
    def test_round_trip(self, tmp_path, prism, nx, nt):
        g = make_grid(prism, nx, nt)
        path = str(tmp_path / "grid.json")
        save_grid_json(g, path)
        assert load_grid_json(path) == g


class TestKernelDict:
    # kernel.json holds dataclasses.asdict(kernel); the config's kernel
    # section is read back as Kernel(**section)
    @pytest.mark.parametrize(
        "kernel, kind",
        [
            (Kernel(kind, profile=profile, amplitude=0.4, n1=n1), kind)
            for n1 in (None, 1)
            for profile in ("constant", "cosine")
            for kind in ("separable", "causal")
        ],
    )
    def test_round_trip(self, kernel, kind):
        d = dataclasses.asdict(kernel)
        assert d["type"] == kind
        assert Kernel(**d) == kernel

    def test_unknown_key_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            Kernel(**{"type": "causal", "bogus": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel type 'mystery'"):
            Kernel("mystery")


class TestTripleDir:
    def test_file_layout_with_source_and_kernel(self, make_pair, tmp_path):
        pair = make_pair(33, 65)
        out = str(tmp_path / "run")
        save_triple_dir(pair["t1"], out, f=pair["f"], kernel=KERNEL)
        assert sorted(os.listdir(out)) == [
            "f.csv",
            "grid.json",
            "history.csv",
            "k.csv",
            "kernel.json",
            "m.csv",
            "report.json",
            "u.csv",
        ]
        report = json.load(open(os.path.join(out, "report.json")))
        assert "history" not in report
        assert report["iterations"] >= 1
        lines = open(os.path.join(out, "history.csv")).read().splitlines()
        assert lines[0] == "iteration,change"
        assert len(lines) == 1 + report["iterations"]

    def test_coefficient_round_trip(self, make_pair, tmp_path):
        pair = make_pair(33, 65)
        out = str(tmp_path / "k")
        save_triple_dir(pair["t2"], out, f=pair["f"], kernel=KERNEL)
        rows = open(os.path.join(out, "k.csv")).read().splitlines()
        assert rows[0] == "i0,value"
        values = np.array([float(r.split(",")[1]) for r in rows[1:]])
        np.testing.assert_array_equal(values, pair["k2"])

    def test_history_csv(self, tmp_path):
        path = str(tmp_path / "h.csv")
        save_history_csv([0.5, 0.25, 0.125], path)
        assert open(path).read() == (
            "iteration,change\n0,0.5\n1,0.25\n2,0.125\n"
        )


def _toy_carleman_report() -> CarlemanReport:
    return CarlemanReport(
        lambdas=(1.0, 2.0),
        lhs=(1.0, 2.0),
        main=(3.0, 4.0),
        boundary=(0.5, 0.25),
        negligible=(0.0, 0.0),
        negligible_log=(-40.0, -80.0),
        passed=(True, True),
        sign=1,
        restricted=False,
    )


class TestCarlemanFiles:
    def test_family_files(self, tmp_path):
        reps = [_toy_carleman_report(), _toy_carleman_report()]
        save_carleman_family(reps, str(tmp_path), 1.5, 1.0)
        rows = open(tmp_path / "carleman.csv").read().splitlines()
        assert rows[0].startswith("member,sign,lambda")
        assert len(rows) == 1 + 4
        summary = json.load(open(tmp_path / "carleman.json"))
        assert summary["members"] == 2
        assert summary["c0"] == 1.5

    def test_lemma_files(self, tmp_path):
        reps = [
            LemmaReport(
                which="spatial",
                lambdas=(1.0, 2.0),
                ratios=(1.0, 1.0),
                c_bound=1.0,
                spread=1.0,
                slope=0.0,
                passed=True,
                degenerate=False,
            )
        ]
        save_lemma_reports(reps, str(tmp_path))
        rows = open(tmp_path / "lemmas.csv").read().splitlines()
        assert rows[0] == "which,sample,lambda,ratio"
        assert rows[1].startswith("spatial,0,1,")
        summary = json.load(open(tmp_path / "lemmas.json"))
        assert summary[0]["which"] == "spatial"
        assert summary[0]["passed"] is True


class TestSweepFiles:
    def _report(self, slope: float) -> SweepReport:
        row = {
            "scale": 0.1,
            "delta": 1e-2,
            "err_k": 1e-3,
            "err_u_s0": 1e-3,
            "err_u_s1": 1e-3,
            "err_u_s2": 1e-3,
            "err_m_s0": 1e-3,
            "err_m_s1": 1e-3,
            "err_m_s2": 1e-3,
        }
        row2 = {k: v * 10.0 for k, v in row.items()}
        return SweepReport(
            rows=(row, row2),
            excluded=({"scale": 5.0, "reason": "no convergence"},),
            slope=slope,
            intercept=0.0,
            r_squared=1.0,
            completeness="full",
        )

    def test_files_and_fit(self, tmp_path):
        save_sweep_report(self._report(1.0), str(tmp_path), PARAMS)
        rows = open(tmp_path / "sweep.csv").read().splitlines()
        assert rows[0] == (
            "scale,delta,err_k,err_u_s0,err_u_s1,err_u_s2,"
            "err_m_s0,err_m_s1,err_m_s2"
        )
        assert len(rows) == 3
        fit = json.load(open(tmp_path / "fit.json"))
        assert fit["slope"] == 1.0
        assert fit["delta_decades"] == 1.0
        assert fit["excluded"] == [{"scale": 5.0, "reason": "no convergence"}]

    def test_nan_fit_becomes_null(self, tmp_path):
        save_sweep_report(self._report(math.nan), str(tmp_path), PARAMS)
        fit = json.load(open(tmp_path / "fit.json"))
        assert fit["slope"] is None

    def test_params_json(self, tmp_path):
        save_sweep_report(self._report(1.0), str(tmp_path), PARAMS)
        d = json.load(open(tmp_path / "params.json"))
        assert d["rho"] == "1/2"
        assert d["beta"] == "33/7"
        assert d["alpha"] == "1000/7"
        assert d["d"] == "132/7"
        assert d["beta_float"] == pytest.approx(33 / 7, rel=1e-15)
        assert d["delta0"] == pytest.approx(math.exp(-264 / 7), rel=1e-15)

    def test_params_dict_strings_are_exact(self):
        d = stability_params_to_dict(PARAMS)
        assert Fraction(d["s"]) == Fraction(9, 16)
        assert Fraction(d["alpha"]) == Fraction(1000, 7)


class TestProvenance:
    def test_written_sorted_and_timestamp_free(self, tmp_path):
        save_provenance(str(tmp_path / "x"), {"zeta": 1, "alpha": [1, 2]})
        text = open(tmp_path / "x" / "provenance.json").read()
        payload = json.loads(text)
        assert payload == {"zeta": 1, "alpha": [1, 2]}
        assert text.index('"alpha"') < text.index('"zeta"')
        assert "time" not in text and "date" not in text

    def test_key_order_does_not_change_bytes(self, tmp_path):
        save_provenance(str(tmp_path / "a"), {"x": 1, "y": 2})
        save_provenance(str(tmp_path / "b"), {"y": 2, "x": 1})
        assert (
            open(tmp_path / "a" / "provenance.json", "rb").read()
            == open(tmp_path / "b" / "provenance.json", "rb").read()
        )
