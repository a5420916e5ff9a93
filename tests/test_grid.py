"""Geometry operators: exactness identities, convergence orders, file format."""

import numpy as np
import pytest

from otgeo.grid import (
    build_grid,
    cell_average,
    covariant_gradient,
    divergence_g,
    face_average,
    integrate,
    laplace_beltrami,
    metric_dot,
    read_field,
    write_field,
)

CONFORMAL = lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x)


class TestBuildGrid:
    def test_unit_flat_circle_volume(self):
        g = build_grid(1, 64, 32, 1.0)
        assert g.volume == pytest.approx(1.0, abs=1e-15)

    def test_unit_flat_torus_volume(self):
        g = build_grid(2, 16, 8, 1.0)
        assert g.volume == pytest.approx(1.0, abs=1e-15)

    def test_conformal_volume_matches_fine_quadrature(self):
        g = build_grid(1, 64, 32, 1.0, CONFORMAL)
        xf = np.linspace(0.0, 1.0, 200001)
        fine = np.trapezoid(np.sqrt(CONFORMAL(xf)), xf)
        assert g.volume == pytest.approx(fine, abs=1e-3)

    def test_equal_grids_compare_and_hash_as_values(self):
        a, b = build_grid(1, 16, 8, 1.0, CONFORMAL), build_grid(1, 16, 8, 1.0, CONFORMAL)
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != build_grid(1, 16, 8, 1.0) and a != build_grid(1, 16, 4, 1.0, CONFORMAL)
        assert len({a, b, build_grid(2, 16, 8, 1.0)}) == 2

    def test_rejects_nonpositive_metric_naming_node(self):
        bad = np.ones(8)
        bad[5] = -0.25
        with pytest.raises(ValueError, match=r"\(5,\)"):
            build_grid(1, 8, 4, 1.0, bad)

    @pytest.mark.parametrize("kwargs", [
        dict(dim=3, n_space=8, n_time=4, horizon=1.0),
        dict(dim=1, n_space=3, n_time=4, horizon=1.0),
        dict(dim=1, n_space=8, n_time=1, horizon=1.0),
        dict(dim=1, n_space=8, n_time=4, horizon=0.0),
        dict(dim=1, n_space=8, n_time=4, horizon=np.nan),
        dict(dim=1, n_space=8, n_time=4, horizon=np.inf),
        dict(dim=1, n_space=8, n_time=4, horizon=1.0, length=np.nan),
        dict(dim=1, n_space=8, n_time=4, horizon=1.0, length=np.inf),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            build_grid(**kwargs)


class TestGradient:
    def test_constant_field_gives_zero(self):
        g = build_grid(1, 32, 8, 1.0, CONFORMAL)
        assert np.all(covariant_gradient(np.full(32, 3.7), g) == 0.0)

    def test_flat_analytic_derivative(self):
        # the forward difference is second order at the face midpoints x + h/2
        g = build_grid(1, 128, 8, 1.0)
        x = g.axis_coords() + 0.5 * g.h
        got = covariant_gradient(np.sin(2 * np.pi * g.axis_coords()), g)[..., 0]
        err = np.max(np.abs(got - 2 * np.pi * np.cos(2 * np.pi * x)))
        assert err < 60.0 * g.h ** 2

    def test_conformal_pointwise_formula(self):
        g = build_grid(1, 128, 8, 1.0, CONFORMAL)
        x = g.axis_coords() + 0.5 * g.h
        got = covariant_gradient(np.sin(2 * np.pi * g.axis_coords()), g)[..., 0]
        exact = 2 * np.pi * np.cos(2 * np.pi * x) / CONFORMAL(x)
        assert np.max(np.abs(got - exact)) < 60.0 * g.h ** 2

    def test_face_metric_and_volume(self):
        g = build_grid(1, 16, 4, 1.0, CONFORMAL)
        gm = CONFORMAL(g.axis_coords())
        np.testing.assert_allclose(g.face_metric[:, 0], 0.5 * (gm + np.roll(gm, -1)), rtol=1e-15)
        np.testing.assert_allclose(g.face_volume, g.h * np.sqrt(g.face_metric), rtol=1e-15)
        flat = build_grid(2, 8, 4, 1.0)
        assert np.all(flat.face_metric == 1.0) and np.all(flat.face_volume == flat.h ** 2)


class TestFaceStencil:
    @pytest.mark.parametrize("dim,n,metric", [(1, 12, None), (1, 13, CONFORMAL),
                                              (2, 8, None), (2, 7, None)],
                             ids=["flat-12", "conformal-13", "flat2d-8", "flat2d-7"])
    def test_only_constants_are_annihilated(self, dim, n, metric):
        # the alternating modes that the centred difference annihilates are
        # moved by the forward difference: the gradient's kernel is the constants
        g = build_grid(dim, n, 4, 1.0, metric)
        columns = covariant_gradient(np.eye(n ** dim).reshape((-1,) + g.space_shape), g)
        assert np.linalg.matrix_rank(columns.reshape(n ** dim, -1)) == n ** dim - 1
        assert np.max(np.abs(covariant_gradient(np.full(g.space_shape, 2.5), g))) == 0.0

    @pytest.mark.parametrize("dim,metric", [(1, None), (1, CONFORMAL), (2, None)],
                             ids=["flat", "conformal", "flat2d"])
    def test_averages_are_adjoint(self, dim, metric):
        # integrate(f cell_average(P)) is the face sum of face_average(f) P
        rng = np.random.default_rng(3)
        g = build_grid(dim, 10, 4, 1.0, metric)
        f = rng.standard_normal(g.space_shape)
        P = rng.standard_normal(g.space_shape + (dim,))
        lhs = integrate(f * cell_average(P, g), g)
        rhs = float(np.sum(face_average(f, g) * P * g.face_volume))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("lead", [(), (5,)], ids=["slice", "path"])
    @pytest.mark.parametrize("dim,metric", [(1, None), (1, CONFORMAL), (2, None)],
                             ids=["flat", "conformal", "flat2d"])
    def test_stencils_are_their_roll_definitions(self, dim, metric, lead):
        # the slice stencils do the arithmetic of the np.roll forms, value for value
        rng = np.random.default_rng(5)
        g = build_grid(dim, 7, 4, 1.0, metric)
        f = rng.standard_normal(lead + g.space_shape)
        P = rng.standard_normal(lead + g.space_shape + (dim,))
        axes = [f.ndim - dim + a for a in range(dim)]
        flux = P if g.flat else P * g.face_volume
        cells = 1.0 if g.flat else g.cell_volume
        forward = [np.roll(f, -1, axis) for axis in axes]
        back = [np.roll(flux[..., a], 1, axis) for a, axis in enumerate(axes)]
        expected = {
            covariant_gradient: np.stack([s - f for s in forward], axis=-1)
            / (g.h if g.flat else g.h * g.face_metric),
            face_average: np.stack([s + f for s in forward], axis=-1) * 0.5,
            divergence_g: sum([flux[..., a] - s for a, s in enumerate(back)][1:],
                              flux[..., 0] - back[0]) / (g.h * cells),
            cell_average: sum([flux[..., a] + s for a, s in enumerate(back)][1:],
                              flux[..., 0] + back[0]) / (2.0 * cells),
        }
        for stencil, want in expected.items():
            arg = f if stencil in (covariant_gradient, face_average) else P
            assert np.array_equal(stencil(arg, g), want)
            out = np.empty_like(want)
            assert stencil(arg, g, out=out) is out and np.array_equal(out, want)

    def test_face_average_of_one_cell(self):
        g = build_grid(2, 6, 4, 1.0)
        f = np.zeros(g.space_shape)
        f[2, 3] = 1.0
        M = face_average(f, g)
        assert M[2, 3, 0] == M[1, 3, 0] == M[2, 3, 1] == M[2, 2, 1] == 0.5
        assert np.sum(M) == 2.0


class TestDivergence:
    def test_constant_vector_on_flat_torus(self):
        g = build_grid(2, 16, 8, 1.0)
        X = np.ones(g.space_shape + (2,))
        assert np.max(np.abs(divergence_g(X, g))) == 0.0

    def test_stokes_for_random_fields(self):
        rng = np.random.default_rng(0)
        for metric in (None, CONFORMAL):
            g = build_grid(1, 32, 8, 1.0, metric)
            X = rng.standard_normal(g.space_shape + (1,))
            assert abs(integrate(divergence_g(X, g), g)) < 1e-13

    def test_flat_analytic_divergence(self):
        # a face field sampled at the faces x + h/2 has its divergence at the cells
        g = build_grid(1, 128, 8, 1.0)
        x = g.axis_coords()
        got = divergence_g(np.cos(2 * np.pi * (x + 0.5 * g.h))[:, None], g)
        exact = -2 * np.pi * np.sin(2 * np.pi * x)
        assert np.max(np.abs(got - exact)) < 60.0 * g.h ** 2


class TestDualityIdentity:
    @pytest.mark.parametrize("dim,metric", [(1, None), (1, CONFORMAL), (2, None)])
    def test_gradient_divergence_adjointness(self, dim, metric):
        rng = np.random.default_rng(1)
        g = build_grid(dim, 16, 4, 1.0, metric)
        u = rng.standard_normal(g.space_shape)
        X = rng.standard_normal(g.space_shape + (dim,))
        lhs = integrate(u * divergence_g(X, g), g)
        rhs = -integrate(metric_dot(covariant_gradient(u, g), X, g), g)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestLaplaceBeltrami:
    def test_eigenfunction_flat(self):
        g = build_grid(1, 128, 8, 1.0)
        x = g.axis_coords()
        u = np.sin(2 * np.pi * x)
        err = np.max(np.abs(laplace_beltrami(u, g) + 4 * np.pi ** 2 * u))
        assert err < 800.0 * g.h ** 2

    def test_constant_is_harmonic(self):
        g = build_grid(2, 16, 4, 1.0)
        assert np.max(np.abs(laplace_beltrami(np.full(g.space_shape, 2.0), g))) == 0.0

    def test_conformal_matches_independent_fine_difference_oracle(self):
        # (1/sqrt g)(sqrt g u_x / g)_x evaluated by a fine-grid evaluation of
        # the flux function, sampled at the coarse nodes
        n = 64
        g = build_grid(1, n, 8, 1.0, CONFORMAL)
        x = g.axis_coords()
        u_fun = lambda s: np.sin(2 * np.pi * s)
        got = laplace_beltrami(u_fun(x), g)

        def flux(s, d=1e-7):
            du = (u_fun(s + d) - u_fun(s - d)) / (2 * d)
            return np.sqrt(CONFORMAL(s)) * du / CONFORMAL(s)

        d = 1e-5
        exact = (flux(x + d) - flux(x - d)) / (2 * d) / np.sqrt(CONFORMAL(x))
        assert np.max(np.abs(got - exact)) < 2500.0 * g.h ** 2

    def test_second_order_convergence(self):
        errs = []
        for n in (32, 64, 128):
            g = build_grid(1, n, 8, 1.0, CONFORMAL)
            x = g.axis_coords()
            u = np.sin(2 * np.pi * x)
            d = 1e-5

            def flux(s):
                du = (np.sin(2 * np.pi * (s + 1e-7)) - np.sin(2 * np.pi * (s - 1e-7))) / 2e-7
                return np.sqrt(CONFORMAL(s)) * du / CONFORMAL(s)

            exact = (flux(x + d) - flux(x - d)) / (2 * d) / np.sqrt(CONFORMAL(x))
            errs.append(np.max(np.abs(laplace_beltrami(u, g) - exact)))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.8


class TestIntegrate:
    def test_unit_constant_on_flat_torus(self):
        g = build_grid(2, 16, 4, 1.0)
        assert integrate(np.ones(g.space_shape), g) == pytest.approx(1.0, abs=1e-14)

    def test_constant_on_conformal_grid_gives_volume(self):
        g = build_grid(1, 32, 4, 1.0, CONFORMAL)
        assert integrate(np.ones(32), g) == pytest.approx(g.volume, abs=1e-14)

    def test_odd_function_integrates_to_zero(self):
        g = build_grid(1, 64, 4, 1.0)
        assert abs(integrate(np.sin(2 * np.pi * g.axis_coords()), g)) < 1e-15

    @pytest.mark.parametrize("g", [build_grid(1, 48, 6, 1.0, CONFORMAL),
                                   build_grid(2, 12, 6, 1.0)], ids=["1d", "2d"])
    def test_path_is_the_stack_of_its_slices(self, g):
        path = np.random.default_rng(5).random((g.n_time + 1,) + g.space_shape)
        got = integrate(path, g)
        assert isinstance(integrate(path[0], g), float)
        assert got.shape == (g.n_time + 1,)
        assert np.array_equal(got, [integrate(s, g) for s in path])


class TestFieldFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        g = build_grid(2, 8, 4, 1.0)
        values = rng.standard_normal((g.n_time + 1,) + g.space_shape)
        path = tmp_path / "field.txt"
        write_field(path, values, g)
        back, dim, n, nt = read_field(path, g)
        assert (dim, n, nt) == (2, 8, 4)
        np.testing.assert_array_equal(back, values)

    def test_values_written_as_their_repr(self, tmp_path):
        # the shortest repr round-trips every double, subnormals and -0.0 included
        g = build_grid(1, 6, 2, 1.0)
        values = np.array([[-0.0, 5e-324, 1e-5, 0.1 + 0.2, 1e16, 1.0 / 3.0]])
        path = tmp_path / "field.txt"
        write_field(path, values, g)
        body = path.read_text().splitlines()[1]
        assert body == " ".join(repr(float(v)) for v in values[0])
        back = read_field(path, g)[0]
        assert back.tobytes() == values.tobytes()

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a field\n1 2 3\n")
        with pytest.raises(ValueError, match="ot-field"):
            read_field(path)

    def test_grid_mismatch_rejected(self, tmp_path):
        g = build_grid(1, 8, 4, 1.0)
        path = tmp_path / "f.txt"
        write_field(path, np.zeros((2, 8)), g)
        other = build_grid(1, 16, 4, 1.0)
        with pytest.raises(ValueError, match="does not match grid"):
            read_field(path, other)

    @pytest.mark.parametrize("header,message", [
        ("ot-field v1 dim=1 n=16 nt", "header token 'nt' is not key=value"),
        ("ot-field v1 dim=1 n=x nt=8", "is not integer"),
    ])
    def test_malformed_header_token_names_file_and_token(self, tmp_path, header, message):
        path = tmp_path / "f.txt"
        path.write_text(header + "\n1 2 3 4\n")
        for grid in (None, build_grid(1, 16, 8, 1.0)):
            with pytest.raises(ValueError, match=message) as err:
                read_field(path, grid)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize("header", ["ot-field v1 dim=1 n=0 nt=8",
                                        "ot-field v1 dim=3 n=4 nt=8",
                                        "ot-field v1 dim=0 n=4 nt=8"])
    def test_degenerate_header_without_grid_names_file(self, tmp_path, header):
        path = tmp_path / "f.txt"
        path.write_text(header + "\n1 2 3 4\n")
        with pytest.raises(ValueError, match="needs dim 1 or 2 and n >= 1") as err:
            read_field(path)
        assert str(path) in str(err.value)
