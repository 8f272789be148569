"""Measurement extraction, noise injection, and the data distance."""

import dataclasses

import numpy as np
import pytest

from mfglab.cip import (
    DataCompatibilityError,
    NoiseSpec,
    OUTER_FACE,
    budget_lines,
    extract,
    inject_noise,
    ladder_residual,
    measure_delta,
)
from mfglab.grid import Face

from conftest import build_problem


@pytest.fixture(scope="module")
def triple():
    return build_problem(33, 65)[1]


@pytest.fixture(scope="module")
def data(triple):
    return extract(triple)


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
        assert ladder_residual(data) <= 1e-10
        assert ladder_residual(data_inc) <= 1e-10

    def test_smooth_noise_breaks_ladder_at_quadrature_level(self, data):
        # the residual is the stencil error on the injected trigonometric
        # noise, so it falls by ~16x when tau is quartered
        noisy = inject_noise(data, NoiseSpec(delta=1e-2, seed=11))
        coarse = ladder_residual(noisy)
        assert coarse == pytest.approx(9.367850338115602e-06, rel=1e-6)

        fine_data = extract(build_problem(33, 257)[1])
        fine = ladder_residual(inject_noise(fine_data, NoiseSpec(delta=1e-2, seed=11)))
        assert 12.0 < coarse / fine < 20.0

    def test_white_noise_destroys_ladder(self, data):
        noisy = inject_noise(
            data, NoiseSpec(delta=1e-2, seed=7, profile="white-per-node")
        )
        assert ladder_residual(noisy) > 0.1


class TestBudget:
    def test_full_mode_line_names(self, data):
        lines = budget_lines(data)
        want = {"u0", "m0"}
        for name in ("g0", "g1", "p0", "p1"):
            want |= {f"{name}_s{s}" for s in range(3)}
        assert set(lines) == want

    def test_incomplete_mode_line_names(self, data_inc):
        lines = budget_lines(data_inc)
        want = {"u0", "m0"} | {f"{name}_s{s}" for name in ("g1", "p1") for s in range(3)}
        assert set(lines) == want

    @pytest.mark.parametrize(
        "completeness, delta",
        [("full", 11.83615940590032), ("incomplete", 7.681672444752676)],
    )
    def test_solution_pair_delta_is_pinned(self, make_pair, completeness, delta):
        pair = make_pair(33, 65)
        d1 = extract(pair["t1"], completeness)
        d2 = extract(pair["t2"], completeness)
        assert measure_delta(d1, d2) == pytest.approx(delta, rel=1e-12)

    def test_snapshot_norms_strengthen_in_incomplete_mode(self, data, data_inc):
        # u0 moves from H1 to H2, so the incomplete line is strictly larger
        full = budget_lines(data)
        inc = budget_lines(data_inc)
        assert full["u0"] == pytest.approx(4.017136157554999, rel=1e-10)
        assert inc["u0"] == pytest.approx(4.121369972010817, rel=1e-10)
        assert inc["u0"] > full["u0"]
        assert inc["m0"] == pytest.approx(full["m0"], rel=1e-12)


class TestNoise:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="delta must be nonnegative"):
            NoiseSpec(delta=-1e-3, seed=0)
        for delta in (float("nan"), float("inf"), True, "0.1"):
            with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
                NoiseSpec(delta=delta, seed=0)
        with pytest.raises(ValueError, match="profile must be one of"):
            NoiseSpec(delta=1e-3, seed=0, profile="pink")
        for seed in ("x", 1.5, -1, True):
            with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
                NoiseSpec(delta=1e-3, seed=seed)
        NoiseSpec(delta=1e-3, seed=np.int64(3))

    def test_zero_delta_returns_data_unchanged(self, data):
        assert inject_noise(data, NoiseSpec(delta=0.0, seed=1)) is data

    @pytest.mark.parametrize("profile", ["smooth-low-mode", "white-per-node"])
    def test_measured_delta_hits_the_target(self, data, profile):
        delta = 1e-2
        noisy = inject_noise(data, NoiseSpec(delta=delta, seed=7, profile=profile))
        measured = measure_delta(noisy, data)
        assert measured == pytest.approx(0.95 * delta, rel=1e-9)
        lines = budget_lines(noisy, data)
        assert max(lines.values()) <= delta
        # each component is scaled independently, so every component's worst
        # line lands on the target as well
        for name in ("u0", "m0", "g0", "g1", "p0", "p1"):
            worst = max(
                v for k, v in lines.items() if k == name or k.startswith(name + "_")
            )
            assert worst == pytest.approx(0.95 * delta, rel=1e-9)

    def test_incomplete_noise_spares_dirichlet_components(self, data_inc):
        noisy = inject_noise(data_inc, NoiseSpec(delta=1e-3, seed=7))
        assert measure_delta(noisy, data_inc) == pytest.approx(0.95e-3, rel=1e-9)
        for tset, noisy_tset in (
            (data_inc.g0, noisy.g0),
            (data_inc.p0, noisy.p0),
        ):
            for face, fam in tset.items():
                for s in range(3):
                    assert np.array_equal(fam[s], noisy_tset[face][s]), (face.label, s)

    def test_same_seed_reproduces_bit_for_bit(self, data):
        spec = NoiseSpec(delta=1e-2, seed=5)
        a = inject_noise(data, spec)
        b = inject_noise(data, spec)
        assert np.array_equal(a.u0, b.u0)
        assert np.array_equal(a.m0, b.m0)
        for name, tset in a.trace_components().items():
            other = b.trace_components()[name]
            for face, fam in tset.items():
                for s in range(3):
                    assert np.array_equal(fam[s], other[face][s])

    def test_different_seed_differs(self, data):
        a = inject_noise(data, NoiseSpec(delta=1e-2, seed=5))
        c = inject_noise(data, NoiseSpec(delta=1e-2, seed=6))
        assert not np.array_equal(a.u0, c.u0)


class TestCompatibility:
    def test_grid_mismatch_rejected(self, data):
        other = extract(build_problem(33, 257)[1])
        with pytest.raises(DataCompatibilityError, match="different grids"):
            measure_delta(other, data)

    def test_incomplete_mode_demands_shared_dirichlet_data(self, data, data_inc):
        # full-mode noise touches the Dirichlet traces, so incomplete data
        # carrying them must be refused
        noisy_g0 = inject_noise(data, NoiseSpec(delta=1e-2, seed=3)).g0
        refused = dataclasses.replace(data_inc, g0=noisy_g0)
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

    def test_solution_pair_is_incomplete_compatible(self, make_pair):
        # two solves of one data specification share their lateral Dirichlet
        # traces bit for bit, which is exactly the incomplete-mode hypothesis
        pair = make_pair(33, 65)
        d1 = extract(pair["t1"], "incomplete")
        d2 = extract(pair["t2"], "incomplete")
        assert measure_delta(d1, d2) == pytest.approx(7.681672444752676, rel=1e-6)
        full = measure_delta(extract(pair["t1"]), extract(pair["t2"]))
        assert full == pytest.approx(11.83615940590032, rel=1e-6)

        noisy = inject_noise(d1, NoiseSpec(delta=1e-3, seed=2))
        assert measure_delta(noisy, d2) > 0.0


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
        with pytest.raises(ValueError, match="u0 must have spatial shape"):
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
        for family in ((s0, s1, s2[:-1]), (s0, s1)):
            with pytest.raises(
                ValueError, match=r"p1 on face x1\+ must be three traces of shape \(65,\)"
            ):
                dataclasses.replace(data, p1={**data.p1, OUTER_FACE: family})
        s0 = s0.copy()
        s0[3] = np.nan
        with pytest.raises(ValueError, match=r"p1 on face x1\+ must be finite"):
            dataclasses.replace(data, p1={**data.p1, OUTER_FACE: (s0, s1, s2)})
