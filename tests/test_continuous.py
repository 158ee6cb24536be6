import tracemalloc
import warnings

import numpy as np
import pytest

import margulis.continuous
from margulis.continuous import (TEST_FUNCTIONS, ContractionReport, CovMatrix,
                                 MeanVector, SampledField, TestFunction,
                                 contraction_check, discretize, f_map, g_map,
                                 g_matrix, gn_closed_form, growth_rate,
                                 mean_update, moments_csv)
from margulis.walk import WALK_MAPS, GridDist, walk_step

# The eight walk maps as float (linear, shift) arrays acting on R^2.
_REAL_MAPS = [(np.array(S, dtype=float), np.array(t, dtype=float)) for S, t in WALK_MAPS.values()]


# discretize's samples taken all at once, (2R + 1)^2 cells of 16, kept as its reference.
def _oracle_discretize(test_fn, delta, R):
    nodes, weights = np.polynomial.legendre.leggauss(4)
    centers = np.arange(-R, R + 1) * delta
    xs = centers[:, None, None, None] + nodes[None, None, :, None] * (delta / 2.0)
    ys = centers[None, :, None, None] + nodes[None, None, None, :] * (delta / 2.0)
    samples = np.broadcast_to(np.asarray(test_fn(xs, ys), dtype=float),
                              np.broadcast_shapes(xs.shape, ys.shape))
    return np.einsum("xyab,ab->xy", samples, np.outer(weights, weights) / 4.0)


def random_psd(rng):
    A = rng.standard_normal((2, 2))
    m = A @ A.T
    return CovMatrix(m[0, 0], m[0, 1], m[1, 1])


class TestMeanUpdate:
    def test_origin_fixed(self):
        assert mean_update(MeanVector(0.0, 0.0)) == MeanVector(0.0, 0.0)

    def test_identity_on_random_points(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            x, p = rng.standard_normal(2)
            out = mean_update(MeanVector(x, p))
            assert out.x == pytest.approx(x, abs=1e-12)
            assert out.p == pytest.approx(p, abs=1e-12)

    def test_specific_point(self):
        out = mean_update(MeanVector(1.0, 2.0))
        assert (out.x, out.p) == (pytest.approx(1.0), pytest.approx(2.0))

    def test_linear_parts_average_to_identity(self):
        total = sum(S for S, _ in _REAL_MAPS)
        assert np.allclose(total, 8 * np.eye(2), atol=0)
        shifts = sum(t for _, t in _REAL_MAPS)
        assert np.allclose(shifts, 0.0, atol=0)


class TestGMatrix:
    def test_origin_value(self):
        G = g_matrix(MeanVector(0.0, 0.0))
        assert np.allclose(G.as_array(), 0.25 * np.eye(2), atol=1e-15)

    def test_psd_for_random_means(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            x, p = 10 * rng.standard_normal(2)
            G = g_matrix(MeanVector(x, p))
            assert np.all(np.linalg.eigvalsh(G.as_array()) >= -1e-12)

    def test_matches_direct_covariance(self):
        m = MeanVector(1.5, -0.5)
        images = np.array([S @ m.as_array() + t for S, t in _REAL_MAPS])
        oracle = np.cov(images.T, bias=True)
        assert np.allclose(g_matrix(m).as_array(), oracle, atol=1e-12)


class TestGMap:
    def test_identity_input(self):
        out = g_map(CovMatrix(1.0, 0.0, 1.0))
        assert (out.a, out.b, out.c) == (3.0, 0.0, 3.0)

    def test_substitution_example(self):
        out = g_map(CovMatrix(2.0, 1.0, 0.0))
        assert (out.a, out.b, out.c) == (2.0, 1.0, 4.0)

    def test_equals_averaged_congruence_sum(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            gam = CovMatrix(*rng.standard_normal(3))
            avg = sum(S @ gam.as_array() @ S.T for S, _ in _REAL_MAPS) / 8.0
            assert np.max(np.abs(g_map(gam).as_array() - avg)) < 1e-12

    def test_linearity(self):
        x, y = CovMatrix(1.0, 2.0, 3.0), CovMatrix(-1.0, 0.5, 2.0)
        lhs = g_map(CovMatrix(x.a + 2 * y.a, x.b + 2 * y.b, x.c + 2 * y.c))
        rhs_a = g_map(x).as_array() + 2 * g_map(y).as_array()
        assert np.allclose(lhs.as_array(), rhs_a, atol=1e-13)


class TestFMap:
    def test_identity_at_origin(self):
        out, m = f_map(CovMatrix(1.0, 0.0, 1.0), MeanVector(0.0, 0.0))
        assert np.allclose(out.as_array(), 3.5 * np.eye(2), atol=1e-14)
        assert m == MeanVector(0.0, 0.0)

    def test_difference_from_g_is_twice_g_matrix(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            gam = CovMatrix(*rng.standard_normal(3))
            m = MeanVector(*rng.standard_normal(2))
            fg, _ = f_map(gam, m)
            diff = fg.as_array() - g_map(gam).as_array()
            assert np.allclose(diff, 2 * g_matrix(m).as_array(), atol=1e-12)

    def test_dominates_g_iterates_in_psd_order(self):
        rng = np.random.default_rng(44)
        gam0 = random_psd(rng)
        m = MeanVector(0.7, -1.2)
        f_gam, f_m = gam0, m
        g_gam = gam0
        for _ in range(30):
            f_gam, f_m = f_map(f_gam, f_m)
            g_gam = g_map(g_gam)
            diff = f_gam.as_array() - g_gam.as_array()
            scale = max(1.0, np.linalg.norm(diff))
            assert np.min(np.linalg.eigvalsh(diff)) >= -1e-9 * scale


class TestClosedForm:
    def test_identity_fourth_power(self):
        out = gn_closed_form(CovMatrix(1.0, 0.0, 1.0), 4)
        assert (out.a, out.b, out.c) == (81.0, 0.0, 81.0)

    def test_single_step_matches_g_map(self):
        out = gn_closed_form(CovMatrix(2.0, 1.0, 0.0), 1)
        assert (out.a, out.b, out.c) == (2.0, 1.0, 4.0)

    def test_exact_on_integer_inputs(self):
        gam = CovMatrix(3.0, -2.0, 5.0)
        cur = gam
        for n in range(21):
            closed = gn_closed_form(gam, n)
            assert (closed.a, closed.b, closed.c) == (cur.a, cur.b, cur.c)
            cur = g_map(cur)

    def test_matches_iteration_on_random_input(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            gam = CovMatrix(*rng.standard_normal(3))
            cur = gam
            for _ in range(20):
                cur = g_map(cur)
            closed = gn_closed_form(gam, 20)
            assert np.allclose(closed.as_array(), cur.as_array(), rtol=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="overflow"):
            gn_closed_form(CovMatrix(1.0, 0.0, 1.0), 501)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            gn_closed_form(CovMatrix(1.0, 0.0, 1.0), -1)


class TestGrowthRate:
    def test_identity_input_exact(self):
        rate = growth_rate(CovMatrix(1.0, 0.0, 1.0), 10)
        assert np.allclose(np.diag(rate), 1.0, atol=1e-12)
        assert rate[0, 1] == rate[1, 0] == 0.0

    def test_perturbed_input_converges(self):
        rate = growth_rate(CovMatrix(2.0, 0.0, 1.0), 30)
        assert np.max(np.abs(np.diag(rate) - 1.0)) < 0.05

    def test_non_generic_rejected(self):
        with pytest.raises(ValueError, match="non-generic"):
            growth_rate(CovMatrix(1.0, 0.0, -1.0), 10)

    def test_divergence_ratio_stabilizes(self):
        gam0 = CovMatrix(1.0, 0.5, 2.0)
        m = MeanVector(0.3, 0.4)
        traces = []
        cur_g, cur_m = gam0, m
        prev = None
        for n in range(1, 31):
            cur_g, cur_m = f_map(cur_g, cur_m)
            traces.append(cur_g.trace() / 3.0 ** n)
            if prev is not None:
                assert cur_g.trace() >= prev.trace()
                assert cur_g.det() >= prev.det() - 1e-9
            prev = cur_g
        assert traces[-1] > 0
        assert abs(traces[-1] - traces[-2]) < abs(traces[1] - traces[0])


class TestDiscretize:
    def test_zero_function(self):
        zero = TestFunction("zero", lambda x, y: np.zeros_like(np.asarray(x)), 0.5)
        field = discretize(zero, 0.25, 4)
        assert np.all(field.values == 0.0)

    def test_box_dipole_cells_exact_when_aligned(self):
        # delta = 0.25 puts every box edge on a cell boundary.
        field = discretize("box_dipole", 0.25, 8)
        vals = np.unique(np.round(field.values, 12))
        assert set(vals.tolist()) == {-1.0, 0.0, 1.0}
        assert field.mass() == pytest.approx(0.0, abs=1e-15)

    def test_box_norm_matches_l2_exactly_when_aligned(self):
        # ||f||_2^2 = 2 * (1.0 x 1.25 box area)
        field = discretize("box_dipole", 0.25, 8)
        assert field.norm2() == pytest.approx(np.sqrt(2.5), rel=1e-12)

    def test_norm_converges_for_gaussian(self):
        ref = discretize("gaussian_dipole", 1.0 / 64.0, 128).norm2()
        errs = [abs(discretize("gaussian_dipole", d, int(round(2.0 / d))).norm2() - ref)
                for d in (0.5, 0.25, 0.125)]
        assert errs[0] > errs[1] > errs[2]

    def test_gaussian_mass_is_zero_by_antisymmetry(self):
        field = discretize("gaussian_dipole", 0.25, 8)
        assert abs(field.mass()) < 1e-15

    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    @pytest.mark.parametrize("delta,R,rows", [(0.25, 8, None), (0.03125, 64, None),
                                              (0.25, 8, 1), (0.25, 8, 5)])
    def test_strips_equal_the_all_at_once_samples(self, name, delta, R, rows, monkeypatch):
        if rows:  # strips of `rows` cell rows, the last one short
            monkeypatch.setattr(margulis.continuous, "_STRIP_SAMPLES", 16 * (2 * R + 1) * rows)
        fn = TEST_FUNCTIONS[name]
        assert np.array_equal(discretize(fn, delta, R).values, _oracle_discretize(fn, delta, R))

    def test_peak_memory_at_the_largest_r(self):
        # All at once, R = 256 took 16 samples per cell and several temporaries
        # of them: a traced peak of 139 MB.  Strips keep it near the field.
        tracemalloc.start()
        try:
            field = discretize("gaussian_dipole", 1 / 128, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert field.values.shape == (513, 513)
        assert peak < 16e6

    def test_field_is_adopted_not_copied(self):
        # The field is made once and handed over: the samples' strips are
        # the only scratch beside it (a copy of it read 2.1 fields).
        discretize("gaussian_dipole", 0.25, 8)  # imports numpy.polynomial first
        tracemalloc.start()
        try:
            field = discretize("gaussian_dipole", 1 / 128, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not field.values.flags.writeable
        assert peak < 1.75 * field.values.nbytes

    def test_support_exceeding_grid_rejected(self):
        with pytest.raises(ValueError, match="support"):
            discretize("box_dipole", 0.25, 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown test function"):
            discretize("squiggle", 0.25, 8)

    def test_field_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            SampledField(0.25, 3, np.zeros((5, 5)))

    @pytest.mark.parametrize("delta", [0.0, -0.25, float("nan"), float("inf"), 1e300])
    def test_field_rejects_bad_delta(self, delta):
        # 1e300 squares to inf: mass() would raise OverflowError.
        with pytest.raises(ValueError, match="delta must be"):
            SampledField(delta, 2, np.zeros((5, 5)))

    def test_contraction_of_an_overflowing_delta_is_a_value_error(self):
        with pytest.raises(ValueError, match="delta must be small enough to square"):
            contraction_check(discretize("box_dipole", 1e300, 8))


class TestContractionCheck:
    @pytest.mark.parametrize("name", sorted(TEST_FUNCTIONS))
    def test_ratio_below_bound_with_slack(self, name):
        report = contraction_check(discretize(name, 0.25, 8))
        assert isinstance(report, ContractionReport)
        assert report.ratio <= 0.884 + 0.01
        assert report.passed()
        assert report.N_embed % 2 == 1

    def test_zero_field_ratio_zero(self):
        field = SampledField(0.25, 4, np.zeros((9, 9)))
        report = contraction_check(field)
        assert report.ratio == 0.0 and report.norm_in == 0.0

    def test_mass_zero_preserved_after_step(self):
        # Uniform-on-support minus its mean, with box edges aligned to the
        # delta = 0.25 cell boundaries so the cell averages are exact.
        inner, outer = 1.125, 2.125
        weight = (2 * inner) ** 2 / (2 * outer) ** 2

        def fn(x, y):
            x, y = np.asarray(x), np.asarray(y)
            inside = (np.abs(x) <= inner) & (np.abs(y) <= inner)
            support = (np.abs(x) <= outer) & (np.abs(y) <= outer)
            return inside.astype(float) - weight * support.astype(float)

        field = discretize(TestFunction("centered_box", fn, outer), 0.25, 9)
        assert abs(field.mass()) < 1e-12
        report = contraction_check(field)
        radius = int(round(outer / 0.25 + 0.5))
        N = report.N_embed
        grid = np.zeros((N, N))
        sub = field.values[9 - radius: 9 + radius + 1, 9 - radius: 9 + radius + 1]
        idx = np.arange(-radius, radius + 1) % N
        grid[np.ix_(idx, idx)] = sub
        stepped = walk_step(GridDist(N, grid))
        assert abs(stepped.values.sum() * 0.25 ** 2) < 1e-12
        assert report.ratio <= 0.884 + 0.01

    def test_lattice_is_large_enough_not_to_wrap(self):
        # The same field embedded by hand in a lattice 20 cells larger, where
        # nothing can wrap, gives the same ratio.
        field = discretize("box_dipole", 0.25, 8)
        report = contraction_check(field)
        N = report.N_embed + 20
        grid = np.zeros((N, N))
        idx = np.arange(-8, 9) % N
        grid[np.ix_(idx, idx)] = field.values
        stepped = walk_step(GridDist(N, grid))
        ratio = 0.25 * np.linalg.norm(stepped.values) / field.norm2()
        assert report.ratio == pytest.approx(ratio, rel=1e-12)

    def test_embedding_is_adopted_not_copied(self):
        # The step's result and the grid it was handed are the only N^2 arrays.
        field = discretize("gaussian_dipole", 1 / 128, 256)
        tracemalloc.start()
        try:
            report = contraction_check(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.N_embed == 1425
        assert peak < 2 * 8 * report.N_embed ** 2 + 8e6

    def test_nonzero_mass_rejected(self):
        field = SampledField(0.5, 2, np.ones((5, 5)))
        with pytest.raises(ValueError, match="mass"):
            contraction_check(field)

    def test_report_json_fields(self):
        import json
        report = contraction_check(discretize("box_dipole", 0.25, 8))
        obj = json.loads(report.to_json())
        assert set(obj) == {"delta", "R", "N_embed", "norm_in", "norm_out",
                            "ratio", "bound"}


class TestMomentsCsv:
    def test_g_map_trace(self):
        text = moments_csv(CovMatrix(1.0, 0.0, 1.0), MeanVector(0.0, 0.0), 4, "g")
        lines = text.strip().splitlines()
        assert lines[0] == "n,a,b,c,mean_x,mean_p,trace,det"
        last = lines[-1].split(",")
        assert last[0] == "4" and float(last[1]) == 81.0 and float(last[3]) == 81.0

    def test_f_map_exceeds_g_map(self):
        gtext = moments_csv(CovMatrix(1.0, 0.0, 1.0), MeanVector(1.0, 0.0), 5, "g")
        ftext = moments_csv(CovMatrix(1.0, 0.0, 1.0), MeanVector(1.0, 0.0), 5, "f")
        ga = float(gtext.strip().splitlines()[-1].split(",")[1])
        fa = float(ftext.strip().splitlines()[-1].split(",")[1])
        assert fa > ga

    @pytest.mark.parametrize("which,first", [("g", 324), ("f", 322)])
    def test_trace_leaving_float_range_is_refused(self, which, first):
        # det = a*c - b*b overflows first; no row of inf is ever returned.
        gamma, mean = CovMatrix(1.0, 0.0, 1.0), MeanVector(1.0, 2.0)
        with pytest.raises(ValueError, match=f"at iteration {first} \\(det not finite\\)"):
            moments_csv(gamma, mean, 700, which)
        last = moments_csv(gamma, mean, first - 1, which).strip().splitlines()[-1]
        assert last.startswith(f"{first - 1},") and "inf" not in last

    def test_bad_map_name(self):
        with pytest.raises(ValueError, match="map"):
            moments_csv(CovMatrix(1.0, 0.0, 1.0), MeanVector(0.0, 0.0), 1, "h")

    def test_overflow_is_reported_once_with_no_numpy_warning(self):
        # g_matrix's matmul overflows on the way; its warning would only repeat the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at iteration 1 \\(a, b, c, mean_x, mean_p, "
                                                 "trace, det not finite\\)"):
                moments_csv(CovMatrix(1.0, 0.0, 1.0), MeanVector(1e308, 1e308), 3, "f")
