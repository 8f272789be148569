"""Measurement extraction, the derivative ladder of the extracted traces,
the norm budget, and the data distance."""

import dataclasses

import numpy as np
import pytest

from mfglab.cip import (
    DataCompatibilityError,
    OUTER_FACE,
    budget_lines,
    extract,
    measure_delta,
)
from mfglab.grid import Face, first_derivative

from conftest import build_problem


@pytest.fixture(scope="module")
def triple():
    return build_problem(33, 65)[1]


@pytest.fixture(scope="module")
def data(triple):
    return extract(triple, "full")


@pytest.fixture(scope="module")
def data_inc(triple):
    return extract(triple, "incomplete")


class TestExtract:
    def test_outer_face_is_right_wall(self):
        assert OUTER_FACE == Face(axis=0, side=1)
        assert OUTER_FACE.label == "x1+"

    def test_full_mode_covers_every_face(self, data):
        faces = set(data.grid.faces())
        for name, tset in data.trace_components().items():
            assert set(tset) == faces, name
        assert data.completeness == "full"

    def test_incomplete_mode_keeps_neumann_on_outer_face_only(self, data_inc):
        faces = set(data_inc.grid.faces())
        assert set(data_inc.g0) == faces
        assert set(data_inc.p0) == faces
        assert set(data_inc.g1) == {OUTER_FACE}
        assert set(data_inc.p1) == {OUTER_FACE}

    def test_snapshots_are_central_time_slices(self, triple, data):
        g = triple.grid
        i0 = g.index_of_time(g.prism.T / 2.0)
        assert np.array_equal(data.u0, triple.u[:, i0])
        assert np.array_equal(data.m0, triple.m[:, i0])

    def test_each_family_has_three_levels(self, data):
        for tset in data.trace_components().values():
            for fam in tset.values():
                assert len(fam) == 3


class TestLadder:
    def test_clean_data_satisfies_ladder(self, data, data_inc):
        # restriction and time differencing act on disjoint axes, so each
        # s = 1 trace is the time difference of its s = 0 trace; the s = 2
        # level is not checked this way, since twice-composed first
        # differences disagree with the direct second difference at O(tau)
        # near the one-sided time-edge stencils
        for d in (data, data_inc):
            tau = d.grid.tau
            for tset in d.trace_components().values():
                for fam in tset.values():
                    d1 = first_derivative(fam[0], fam[0].ndim - 1, tau)
                    assert np.max(np.abs(d1 - fam[1])) <= 1e-10


class TestBudget:
    def test_full_mode_line_names(self, data):
        lines = budget_lines(data, data)
        want = {"u0", "m0"}
        for name in ("g0", "g1", "p0", "p1"):
            want |= {f"{name}_s{s}" for s in range(3)}
        assert set(lines) == want

    def test_incomplete_mode_line_names(self, data_inc):
        lines = budget_lines(data_inc, data_inc)
        want = {"u0", "m0"} | {f"{name}_s{s}" for name in ("g1", "p1") for s in range(3)}
        assert set(lines) == want

    @pytest.mark.parametrize(
        "completeness, delta",
        [("full", 11.83615940590032), ("incomplete", 7.681672444752676)],
    )
    def test_solution_pair_delta_is_pinned(self, make_pair, completeness, delta):
        # two solves of one data specification share their lateral Dirichlet
        # traces bit for bit, which is exactly the incomplete-mode hypothesis
        pair = make_pair(33, 65)
        d1 = extract(pair["t1"], completeness)
        d2 = extract(pair["t2"], completeness)
        assert measure_delta(d1, d2) == pytest.approx(delta, rel=1e-12)

    def test_list_data_measure_as_arrays(self, make_pair):
        # every snapshot and trace is stored as the array its check returns,
        # so data given as lists measure as the arrays they spell
        def listed(d):
            traces = {
                name: {face: tuple(v.tolist() for v in fam) for face, fam in tset.items()}
                for name, tset in d.trace_components().items()
            }
            return dataclasses.replace(d, u0=d.u0.tolist(), m0=d.m0.tolist(), **traces)

        pair = make_pair(33, 65)
        d1, d2 = extract(pair["t1"], "full"), extract(pair["t2"], "full")
        assert measure_delta(listed(d1), listed(d2)) == measure_delta(d1, d2)

    def test_snapshot_norms_strengthen_in_incomplete_mode(self, data, data_inc):
        # u0 moves from H1 to H2, so the incomplete line is strictly larger;
        # against zero snapshots each line is the norm of the snapshot itself
        def lines(d):
            zero = dataclasses.replace(d, u0=np.zeros_like(d.u0), m0=np.zeros_like(d.m0))
            return budget_lines(d, zero)

        full = lines(data)
        inc = lines(data_inc)
        assert full["u0"] == pytest.approx(4.017136157554999, rel=1e-10)
        assert inc["u0"] == pytest.approx(4.121369972010817, rel=1e-10)
        assert inc["u0"] > full["u0"]
        assert inc["m0"] == pytest.approx(full["m0"], rel=1e-12)


class TestCompatibility:
    def test_grid_mismatch_rejected(self, data):
        other = extract(build_problem(33, 257)[1], "full")
        with pytest.raises(DataCompatibilityError, match="different grids"):
            measure_delta(other, data)

    def test_incomplete_mode_demands_shared_dirichlet_data(self, data_inc):
        # the incomplete regime budgets no Dirichlet traces, so data whose
        # Dirichlet traces differ off the outer face must be refused
        inner = Face(0, -1)
        s0, s1, s2 = data_inc.g0[inner]
        shifted = {**data_inc.g0, inner: (s0 + 1e-3, s1, s2)}
        refused = dataclasses.replace(data_inc, g0=shifted)
        with pytest.raises(
            DataCompatibilityError,
            match=r"identical Dirichlet data off the outer face.*x1-",
        ):
            measure_delta(refused, data_inc)

    @pytest.mark.parametrize("order", ["full-first", "incomplete-first"])
    def test_mixed_completeness_rejected(self, data, data_inc, order):
        pair = (data, data_inc) if order == "full-first" else (data_inc, data)
        with pytest.raises(DataCompatibilityError, match="cannot compare"):
            measure_delta(*pair)


class TestValidation:
    def test_unknown_completeness(self, data):
        with pytest.raises(ValueError, match="completeness must be"):
            dataclasses.replace(data, completeness="half")

    def test_dirichlet_sets_must_cover_every_face(self, data):
        partial = {OUTER_FACE: data.g0[OUTER_FACE]}
        with pytest.raises(ValueError, match="g0 must cover every face"):
            dataclasses.replace(data, g0=partial)

    def test_incomplete_neumann_coverage_is_exact(self, data, data_inc):
        with pytest.raises(ValueError, match="g1 must cover exactly"):
            dataclasses.replace(data_inc, g1=data.g1)

    def test_snapshot_shape_checked(self, data):
        with pytest.raises(ValueError, match=r"u0 has shape \(5,\), not \(33,\)"):
            dataclasses.replace(data, u0=np.zeros(5))

    def test_snapshots_are_finite(self, data):
        for name in ("u0", "m0"):
            bad = getattr(data, name).copy()
            bad[4] = np.nan
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                dataclasses.replace(data, **{name: bad})
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                dataclasses.replace(data, **{name: np.full(bad.shape, np.inf)})

    def test_traces_are_finite_and_shaped_like_their_face(self, data):
        s0, s1, s2 = data.p1[OUTER_FACE]
        with pytest.raises(ValueError, match=r"p1 s=2 on face x1\+ has shape \(64,\), not \(65,\)"):
            dataclasses.replace(data, p1={**data.p1, OUTER_FACE: (s0, s1, s2[:-1])})
        with pytest.raises(ValueError, match=r"p1 on face x1\+ must be three traces"):
            dataclasses.replace(data, p1={**data.p1, OUTER_FACE: (s0, s1)})
        s0 = s0.copy()
        s0[3] = np.nan
        with pytest.raises(ValueError, match=r"p1 s=0 on face x1\+ must be finite"):
            dataclasses.replace(data, p1={**data.p1, OUTER_FACE: (s0, s1, s2)})
