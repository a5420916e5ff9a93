"""Families, config validation, artifact reproducibility, exit codes."""

import hashlib
import json
import logging
from pathlib import Path

import numpy as np
import pytest

from otgeo.grid import build_grid, integrate, write_field
from otgeo.transport import ReferenceMeasure
from otgeo.families import make_marginals
from otgeo.prox import solve_prox
from otgeo.elliptic import EllipticProblem, solve_elliptic
from otgeo.diagnostics import DiagnosticsReport
from otgeo.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    REFERENCE_PROFILES,
    ConfigError,
    config_digest,
    emit_plots,
    load_config,
    main,
    run,
    validate_config,
)


def write_config(tmp_path, **overrides):
    cfg = {
        "grid": {"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0},
        "marginals": {"family": "uniform"},
        "reference": {"profile": "zero"},
        "solver": {"method": "prox", "eps": 0.1},
        "diagnostics": {"checks": ["energy", "duality"]},
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, val in overrides.items():
        cfg[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestMakeMarginals:
    def test_uniform(self):
        g = build_grid(1, 32, 8, 1.0)
        m0, m1 = make_marginals("uniform", {}, g)
        assert np.max(np.abs(m0 - 1.0)) < 1e-12
        assert integrate(m1, g) == pytest.approx(1.0, abs=1e-12)

    def test_bump_pair_positive_unit_mass(self):
        g = build_grid(1, 64, 8, 1.0)
        m0, m1 = make_marginals("bump_pair", {"width": 0.08, "centers": (0.0, 0.5)}, g)
        for m in (m0, m1):
            assert np.min(m) > 0
            assert integrate(m, g) == pytest.approx(1.0, abs=1e-12)
        assert abs(g.axis_coords()[np.argmax(m1)] - 0.5) < g.h

    def test_bump_peak_parameter(self):
        g = build_grid(1, 64, 8, 1.0)
        m0, _ = make_marginals("bump_pair", {"peak": 4.0, "floor": 1e-3}, g)
        assert np.max(m0) == pytest.approx(4.0, rel=0.25)

    def test_step_family(self):
        g = build_grid(1, 64, 8, 1.0)
        m0, m1 = make_marginals("step", {"width": 0.25, "floor": 0.05}, g)
        assert np.min(m0) > 0
        assert integrate(m0, g) == pytest.approx(1.0, abs=1e-12)

    def test_point_like_zero_steps_solved_by_both_solvers(self):
        g = build_grid(1, 32, 8, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0, m1 = make_marginals("point_like", {"smoothing_steps": 0}, g)
        assert np.min(m0) == 0.0
        mp, _, _, rep_p = solve_prox(m0, m1, ref, 0.1, g)
        _, me, rep_e = solve_elliptic(EllipticProblem(g, ref, 0.1, m0, m1))
        assert rep_p.converged and rep_e.final_residual < 1e-9
        assert rep_p.objective == pytest.approx(rep_e.objective, rel=1e-8)
        assert np.min(mp.values[1:-1]) > 0 and np.min(me.values[1:-1]) > 0

    def test_point_like_smoothing_makes_it_solvable(self):
        g = build_grid(1, 32, 8, 1.0)
        m0, m1 = make_marginals("point_like", {"smoothing_steps": 3}, g)
        assert np.min(m0) > 0
        assert integrate(m0, g) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [24, 32])
    def test_point_like_2d_smoothed_pair_is_a_product(self, n):
        # each axis factor is smoothed and floored on its own, so the marginal
        # is the outer product of its axis marginals, and positive
        g = build_grid(2, n, 4, 1.0)
        for m in make_marginals("point_like", {"smoothing_steps": 1}, g):
            row, col = m.sum(axis=1) * g.h, m.sum(axis=0) * g.h
            assert np.max(np.abs(m - np.multiply.outer(row, col))) <= 1e-14 * np.max(m)
            assert np.min(m) > 0
            assert integrate(m, g) == pytest.approx(1.0, abs=1e-12)

    def test_file_family_roundtrip(self, tmp_path):
        g = build_grid(1, 32, 8, 1.0)
        x = g.axis_coords()
        m = np.exp(np.cos(2 * np.pi * x))
        m /= integrate(m, g)
        f0, f1 = tmp_path / "m0.txt", tmp_path / "m1.txt"
        write_field(f0, m[None, :], g)
        write_field(f1, np.roll(m, 8)[None, :], g)
        m0, m1 = make_marginals("file", {"file0": str(f0), "file1": str(f1)}, g)
        assert integrate(m0, g) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_family(self):
        g = build_grid(1, 32, 8, 1.0)
        with pytest.raises(ValueError, match="unknown marginal family"):
            make_marginals("nope", {}, g)

    @pytest.mark.parametrize("dim,family,params,name", [
        (1, "bump_pair", {"width": 0}, "width"),
        (1, "bump_pair", {"width": -0.1}, "width"),
        (1, "bump_pair", {"width": float("inf")}, "width"),
        (1, "step", {"width": 0}, "width"),
        (1, "bump_pair", {"peak": 0}, "peak"),
        (1, "bump_pair", {"peak": float("nan")}, "peak"),
        (1, "point_like", {"smoothing_steps": -1}, "smoothing_steps"),
        (1, "bump_pair", {"centers": [0.0]}, "centers"),
        (1, "bump_pair", {"centers": ["a", 0.5]}, "centers"),
        (1, "step", {"centers": [0.0, float("nan")]}, "centers"),
        (2, "bump_pair", {"centers": [0.0, 0.5]}, "centers"),
        (2, "step", {"centers": [[0.0, 0.0], [0.5]]}, "centers"),
        (1, "point_like", {"cells": [100, 3]}, "cells"),
        (1, "point_like", {"cells": [-1, 3]}, "cells"),
        (1, "point_like", {"cells": [1.5, 3]}, "cells"),
        (1, "point_like", {"cells": [0]}, "cells"),
        (2, "point_like", {"cells": [[0, 0], [16, 0]]}, "cells"),
        (1, "file", {"file1": "m1.txt"}, "file0"),
        (1, "file", {"file0": "m0.txt"}, "file1"),
        (1, "file", {"file0": "/nonexistent/m0.txt", "file1": "/nonexistent/m1.txt"}, "file0"),
    ])
    def test_unusable_parameter_rejected_by_name(self, dim, family, params, name):
        g = build_grid(dim, 16, 8, 1.0)
        with pytest.raises(ValueError, match=name):
            make_marginals(family, params, g)

    def test_2d_bump_pair(self):
        g = build_grid(2, 12, 4, 1.0)
        m0, m1 = make_marginals("bump_pair", {"width": 0.2}, g)
        assert np.min(m0) > 0
        assert integrate(m0, g) == pytest.approx(1.0, abs=1e-12)


class TestConfigValidation:
    def test_valid_passes(self, tmp_path):
        path, _ = write_config(tmp_path)
        load_config(path)

    @pytest.mark.parametrize("patch,field", [
        ({"grid": {"dim": 3, "n_space": 32, "n_time": 16, "horizon": 1.0}}, "grid.dim"),
        ({"grid": {"n_space": 32, "n_time": 16, "horizon": 1.0}}, "grid.dim"),
        ({"marginals": {"family": "nope"}}, "marginals.family"),
        ({"solver": {"method": "prox"}}, "eps"),
        ({"solver": {"method": "quantum", "eps": 0.1}}, "solver.method"),
        ({"diagnostics": {"checks": ["nonsense"]}}, "check"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"prox_tolerance": 1e-12}}},
         "solver.prox.prox_tolerance"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"penalty": -1.0}}},
         "solver.prox.penalty"),
        ({"solver": {"method": "elliptic", "eps": 0.1, "elliptic": {"newton_steps": 5}}},
         "solver.elliptic.newton_steps"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"stagnation_window": 0}}},
         "solver.prox.stagnation_window"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"stagnation_window": -3}}},
         "solver.prox.stagnation_window"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"stagnation_window": 2.5}}},
         "solver.prox.stagnation_window"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"max_outer_iterations": 0}}},
         "solver.prox.max_outer_iterations"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"min_iterations": -1}}},
         "solver.prox.min_iterations"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"gap_tolerance": 0.0}}},
         "solver.prox.gap_tolerance"),
        # removed when the certified gap stop replaced the stagnation rule
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"constraint_tolerance": 1e-7}}},
         "solver.prox.constraint_tolerance"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"objective_stagnation": 1e-9}}},
         "solver.prox.objective_stagnation"),
        ({"solver": {"method": "elliptic", "eps": 0.1,
                     "elliptic": {"max_newton_iterations": 0}}},
         "solver.elliptic.max_newton_iterations"),
        ({"solver": {"method": "elliptic", "eps": 0.1,
                     "elliptic": {"max_newton_iterations": 2.5}}},
         "solver.elliptic.max_newton_iterations"),
        ({"solver": {"method": "elliptic", "eps": 0.1, "elliptic": {"max_bisections": -1}}},
         "solver.elliptic.max_bisections"),
        # removed when the line search's halvings became a constant (MAX_BACKTRACKS)
        ({"solver": {"method": "elliptic", "eps": 0.1, "elliptic": {"max_backtracks": 0}}},
         "solver.elliptic.max_backtracks"),
        ({"solver": {"method": "both", "eps": 0.1, "elliptic": {"delta_final": -1e-6}}},
         "solver.elliptic.delta_final"),
        ({"solver": {"method": "both", "eps": 0.1, "elliptic": {"newton_tolerance": 0.0}}},
         "solver.elliptic.newton_tolerance"),
        ({"solver": {"method": "prox", "eps": 0.1, "prox": {"penalty": "1"}}},
         "solver.prox.penalty"),
        # removed when the linear check's bound became a constant (LINEAR_TOLERANCE)
        ({"solver": {"method": "both", "eps": 0.1, "elliptic": {"linear_tolerance": "1e-10"}}},
         "solver.elliptic.linear_tolerance"),
        # removed with the delta continuation; rho has no counterpart in F_eps
        ({"solver": {"method": "elliptic", "eps": 0.1, "elliptic": {"rho": 0.5}}},
         "solver.elliptic.rho"),
        ({"solver": {"method": "both", "eps": 0.1, "elliptic": {"delta_start": 1.0}}},
         "solver.elliptic.delta_start"),
        # wrong JSON types
        ({"grid": {"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0,
                   "metric_profile": "flat"}}, "grid.metric_profile"),
        ({"reference": "zero"}, "reference"),
        ({"diagnostics": {"checks": ["energy", 3]}}, "diagnostics.checks"),
        ({"solver": {"method": "prox", "eps_list": 0.1}}, "solver.eps_list"),
        ({"marginals": {"family": "bump_pair", "width": "x"}}, "marginals.width"),
        ({"grid": {"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0,
                   "metric_profile": {"id": "conformal_sine", "amplitude": [0.5]}}},
         "grid.metric_profile.amplitude"),
    ])
    def test_invalid_configs_name_the_field(self, tmp_path, patch, field):
        path, _ = write_config(tmp_path, **patch)
        with pytest.raises(ConfigError, match=field.split(".")[-1]):
            load_config(path)
        assert main(["check", str(path)]) == EXIT_CONFIG

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_digest_is_canonical(self):
        a = {"b": 1, "a": [1, 2]}
        b = {"a": [1, 2], "b": 1}
        assert config_digest(a) == config_digest(b)


class TestReferenceProfiles:
    @pytest.mark.parametrize("name,fn", [("cosine", np.cos), ("sine", np.sin)])
    def test_2d_column_potential_broadcasts(self, name, fn):
        g = build_grid(2, 16, 4, 1.0)
        x = g.axis_coords()
        params = {"amplitude": -0.7, "frequency": 2}
        V = ReferenceMeasure.from_potential(REFERENCE_PROFILES[name](params, x, 2), g)
        old = -0.7 * (fn(2.0 * np.pi * 2 * x)[:, None] + 0.0 * x[None, :])
        assert V.potential_V.shape == (16, 16)
        assert V.potential_V.tobytes() == (np.zeros((16, 16)) + old).tobytes()
        assert V.log_normalizer == ReferenceMeasure.from_potential(old, g).log_normalizer


class TestRun:
    def test_non_finite_marginal_file_exits_before_solving(self, tmp_path, monkeypatch, capsys):
        import otgeo.cli as cli
        g = build_grid(1, 16, 8, 1.0)
        m = np.ones(16)
        m[3] = np.nan
        f0, f1 = tmp_path / "m0.txt", tmp_path / "m1.txt"
        write_field(f0, m[None, :], g)
        write_field(f1, np.ones((1, 16)), g)

        def unreachable(*args):
            raise AssertionError("a solver ran on a non-finite marginal")
        monkeypatch.setattr(cli, "solve_prox", unreachable)
        monkeypatch.setattr(cli, "solve_elliptic", unreachable)
        path, _ = write_config(
            tmp_path, grid={"dim": 1, "n_space": 16, "n_time": 8, "horizon": 1.0},
            marginals={"family": "file", "file0": str(f0), "file1": str(f1)},
            solver={"method": "both", "eps": 0.1})
        assert run(path) == (EXIT_CONFIG, [])
        assert "non-finite density" in capsys.readouterr().err

    @pytest.mark.parametrize("header,body,message", [
        ("ot-field v1 dim=1 n=16", "1.0 " * 16, "the header has no nt="),
        ("ot-field v1 dim=1 n=16 nt=8", "", "the file holds no slice"),
    ], ids=["no-nt", "no-slice"])
    def test_malformed_marginal_file_exits_2(self, tmp_path, capsys, header, body, message):
        f0, f1 = tmp_path / "m0.txt", tmp_path / "m1.txt"
        f0.write_text(f"{header}\n{body}\n")
        write_field(f1, np.ones((1, 16)), build_grid(1, 16, 8, 1.0))
        path, cfg = write_config(
            tmp_path, grid={"dim": 1, "n_space": 16, "n_time": 8, "horizon": 1.0},
            marginals={"family": "file", "file0": str(f0), "file1": str(f1)})
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert run(path) == (EXIT_CONFIG, [])
        err = capsys.readouterr().err
        assert err.count(f"{f0}: {message}") == 2
        assert not Path(cfg["output"]["directory"]).exists()

    @pytest.mark.parametrize("solver,horizon", [
        ({"method": "elliptic", "eps": 0.1, "elliptic": {"newton_tolerance": float("nan")}}, 1.0),
        ({"method": "elliptic", "eps": float("nan")}, 1.0),
        ({"method": "elliptic", "eps": float("inf")}, 1.0),
        ({"method": "elliptic", "eps": 0.1}, float("nan")),
        ({"method": "prox", "eps": float("inf")}, 1.0),
        ({"method": "prox", "eps_list": [0.1, float("nan")]}, 1.0),
    ], ids=["newton_tolerance-nan", "eps-nan", "eps-inf", "horizon-nan", "prox-eps-inf",
            "eps_list-nan"])
    def test_non_finite_number_exits_before_solving(self, tmp_path, monkeypatch, capsys,
                                                    solver, horizon):
        import otgeo.cli as cli

        def unreachable(*args):
            raise AssertionError("a solver ran on a non-finite number")
        monkeypatch.setattr(cli, "solve_prox", unreachable)
        monkeypatch.setattr(cli, "solve_elliptic", unreachable)
        path, _ = write_config(
            tmp_path, grid={"dim": 1, "n_space": 16, "n_time": 8, "horizon": horizon},
            marginals={"family": "bump_pair", "width": 0.15}, solver=solver)
        assert run(path) == (EXIT_CONFIG, [])
        assert "finite" in capsys.readouterr().err
        assert main(["check", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("overrides", [
        {"grid": {"dim": True, "n_space": 16, "n_time": 8, "horizon": 1.0}},
        {"grid": {"dim": 1, "n_space": 16, "n_time": 8, "horizon": True}},
        {"solver": {"method": "prox", "eps": True}},
        {"solver": {"method": "prox", "eps_list": [0.1, True]}},
        {"marginals": {"family": "bump_pair", "width": True}},
        {"marginals": {"family": "bump_pair", "peak": True}},
        {"marginals": {"family": "step", "floor": True}},
        {"marginals": {"family": "point_like", "smoothing_steps": True}},
        {"grid": {"dim": 1, "n_space": 16, "n_time": 8, "horizon": 1.0,
                  "metric_profile": {"id": "conformal_sine", "amplitude": True}}},
        {"reference": {"profile": "cosine", "frequency": True}},
    ], ids=["dim", "horizon", "eps", "eps_list", "width", "peak", "floor", "smoothing_steps",
            "amplitude", "frequency"])
    def test_boolean_number_exits_before_solving(self, tmp_path, monkeypatch, capsys, overrides):
        # JSON true is no number, though Python's bool is an int
        import otgeo.cli as cli

        def unreachable(*args):
            raise AssertionError("a solver ran on a boolean number")
        monkeypatch.setattr(cli, "solve_prox", unreachable)
        monkeypatch.setattr(cli, "solve_elliptic", unreachable)
        path, cfg = write_config(tmp_path, **overrides)
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert run(path) == (EXIT_CONFIG, [])
        assert "config error" in capsys.readouterr().err
        assert not Path(cfg["output"]["directory"]).exists()

    @pytest.mark.parametrize("patch,name", [
        ({"grid": {"length": "x"}}, "length"),
        ({"grid": {"length": 0}}, "length"),
        ({"grid": {"length": True}}, "length"),
        ({"grid": {"metric_profile": {"id": "conformal_sine", "amplitude": 2.0}}}, "metric"),
        ({"solver": {"method": "prox", "eps_list": [0.1, 0.2]},
          "diagnostics": {"checks": ["sweep"]}}, "eps_list"),
        ({"solver": {"method": "prox", "eps_list": []}}, "eps_list"),
        ({"marginals": {"family": "bump_pair", "width": 0}}, "width"),
        ({"marginals": {"family": "bump_pair", "width": -0.1}}, "width"),
        ({"marginals": {"family": "step", "width": 0}}, "width"),
        ({"marginals": {"family": "bump_pair", "peak": 0}}, "peak"),
        ({"marginals": {"family": "bump_pair", "width": 0.15, "floor": -0.5}}, "floor"),
        ({"marginals": {"family": "bump_pair", "width": 0.15, "floor": -1e-6}}, "floor"),
        ({"marginals": {"family": "bump_pair", "width": 0.15, "floor": float("inf")}}, "floor"),
        ({"reference": {"profile": "cosine", "amplitude": float("inf")}}, "reference.amplitude"),
        ({"reference": {"profile": "cosine", "amplitude": 1000.0}}, "log-normalizer"),
        ({"output": {"formats": ["json", "pdf"]}}, "output.formats"),
        ({"grid_x": 1}, "grid_x"),
        ({"marginals": {"family": "point_like", "smoothing_steps": -1}}, "smoothing_steps"),
        ({"marginals": {"family": "bump_pair", "centers": [0.0]}}, "centers"),
        ({"marginals": {"family": "bump_pair", "centers": ["a", 0.5]}}, "centers"),
        ({"marginals": {"family": "point_like", "cells": [100, 3]}}, "cells"),
        ({"marginals": {"family": "file", "file1": "m1.txt"}}, "file0"),
        ({"diagnostics": {"checks": [{"id": "duality", "gap_facotr": 0}]}}, "gap_facotr"),
        ({"diagnostics": {"checks": [{"id": "duality", "with_heat_bound": True}]}},
         "with_heat_bound"),
        ({"output": {"directory": 5}}, "output.directory"),
        # a misspelt field in each block
        ({"grid": {"lenght": 2.0}}, "grid.lenght"),
        ({"grid": {"metric_profile": {"id": "conformal_sine", "amplitdue": 0.5}}},
         "grid.metric_profile.amplitdue"),
        ({"marginals": {"family": "bump_pair", "widht": 0.15}}, "'widht' of the bump_pair"),
        ({"marginals": {"family": "bump_pair", "width": 0.15, "cells": [0, 8]}},
         "'cells' of the bump_pair"),
        ({"reference": {"profile": "cosine", "amplitdue": 0.3}}, "reference.amplitdue"),
        ({"solver": {"method": "both", "eps": 0.1, "epsilon": 0.5}}, "solver.epsilon"),
        ({"output": {"directroy": "results"}}, "output.directroy"),
        ({"diagnostics": {"checks": [], "check": ["energy"]}}, "diagnostics.check"),
        # the 2-D W2 oracles take product pairs, and the floor makes the step pair a sum
        ({"grid": {"dim": 2, "n_space": 8}, "marginals": {"family": "step"},
          "solver": {"method": "prox", "eps_list": [0.2, 0.1]},
          "diagnostics": {"checks": ["sweep"]}}, "product"),
    ], ids=["length-string", "length-zero", "length-bool", "metric-negative",
            "sweep-eps_list-increasing", "eps_list-empty", "width-zero", "width-negative",
            "step-width-zero", "peak-zero", "floor-negative", "floor-slightly-negative",
            "floor-infinite", "reference-amplitude-infinite", "reference-amplitude-huge",
            "output-format-unknown", "unknown-top-level-field", "smoothing_steps-negative",
            "centers-one", "centers-string", "cells-outside", "file0-missing",
            "check-option-misspelt", "check-option-of-another-check", "output-directory-number",
            "grid-field-misspelt", "metric-field-misspelt", "marginals-field-misspelt",
            "marginals-field-of-another-family", "reference-field-misspelt",
            "solver-field-misspelt", "output-field-misspelt", "diagnostics-field-misspelt",
            "sweep-2d-step"])
    def test_config_built_before_any_solve(self, tmp_path, monkeypatch, capsys, patch, name):
        # check builds what run builds, so both reject the config, and run
        # neither solves nor creates its output directory
        import otgeo.cli as cli

        def unreachable(*args):
            raise AssertionError("a solver ran on a rejected config")
        monkeypatch.setattr(cli, "solve_prox", unreachable)
        monkeypatch.setattr(cli, "solve_elliptic", unreachable)
        path, _ = write_config(tmp_path, **{
            "marginals": {"family": "bump_pair", "width": 0.15},
            "solver": {"method": "both", "eps": 0.1}, **patch,
            "grid": {"dim": 1, "n_space": 16, "n_time": 8, "horizon": 1.0,
                     **patch.get("grid", {})},
            "output": {"directory": str(tmp_path / "out"), **patch.get("output", {})}})
        assert main(["check", str(path)]) == EXIT_CONFIG
        assert run(path) == (EXIT_CONFIG, [])
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("config error") == 3 and name in err
        assert not (tmp_path / "out").exists()

    def test_verbose_run_logs_progress(self, tmp_path, capsys, caplog):
        path, _ = write_config(tmp_path)
        caplog.set_level(logging.INFO, logger="otgeo")
        assert main(["run", str(path), "--out", str(tmp_path / "r"), "--verbose"]) == EXIT_OK
        assert "prox solve at eps=0.1" in caplog.messages
        assert "prox solve at eps=0.1\n" in capsys.readouterr().err
        assert logging.getLogger("otgeo").handlers == []

    def test_default_run_writes_nothing_to_stderr(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert run(path, verbose=False)[0] == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_uniform_run_exit_zero(self, tmp_path):
        path, cfg = write_config(tmp_path)
        code, artifacts = run(path)
        assert code == EXIT_OK
        out = Path(cfg["output"]["directory"])
        assert (out / "solve_report.json").exists()
        assert (out / "diagnostics.json").exists()
        assert (out / "diagnostics.csv").exists()
        payload = json.loads((out / "solve_report.json").read_text())
        assert payload["config_digest"] == config_digest(cfg)
        assert abs(payload["solvers"]["prox"]["objective"]) < 1e-8
        assert "wall_time" not in payload["solvers"]["prox"]

    def test_stationary_run_closed_form(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            grid={"dim": 1, "n_space": 64, "n_time": 32, "horizon": 1.0},
            marginals={"family": "bump_pair", "width": 0.3},
            reference={"profile": "cosine", "amplitude": 0.3},
            solver={"method": "prox", "eps": 0.1},
        )
        # stationary instance: overwrite marginals with the reference density
        cfg["marginals"] = {"family": "file"}
        g = build_grid(1, 64, 32, 1.0)
        ref = ReferenceMeasure.from_potential(
            0.3 * np.cos(2 * np.pi * g.axis_coords()), g)
        ms = ref.stationary_density(g)
        f = tmp_path / "stat.txt"
        write_field(f, ms[None, :], g)
        cfg["marginals"] = {"family": "file", "file0": str(f), "file1": str(f)}
        path.write_text(json.dumps(cfg))
        code, _ = run(path)
        assert code == EXIT_OK
        payload = json.loads((Path(cfg["output"]["directory"]) / "solve_report.json").read_text())
        assert payload["solvers"]["prox"]["objective"] == pytest.approx(
            -0.1 * ref.log_normalizer, abs=2e-6)

    def test_solver_error_leaves_no_directory(self, tmp_path, capsys):
        # exit 3 writes no artifact, so the output directory is never made
        from otgeo.cli import EXIT_SOLVER
        path, cfg = write_config(tmp_path, marginals={"family": "bump_pair", "width": 0.15},
                                 solver={"method": "prox", "eps": 0.1,
                                         "prox": {"max_outer_iterations": 1}})
        assert run(path) == (EXIT_SOLVER, [])
        assert "solver error" in capsys.readouterr().err
        assert not Path(cfg["output"]["directory"]).exists()

    def test_bitwise_reproducibility(self, tmp_path):
        path, cfg = write_config(tmp_path)
        _, arts1 = run(path, out_dir=tmp_path / "r1")
        _, arts2 = run(path, out_dir=tmp_path / "r2")
        assert len(arts1) == len(arts2) > 0
        for a, b in zip(sorted(arts1), sorted(arts2)):
            assert hashlib.sha256(Path(a).read_bytes()).digest() == \
                hashlib.sha256(Path(b).read_bytes()).digest()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, artifacts = run(bad)
        assert code == EXIT_CONFIG
        assert artifacts == []

    def test_both_methods_cross_compare(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            grid={"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0},
            marginals={"family": "bump_pair", "width": 0.2},
            solver={"method": "both", "eps": 0.1},
        )
        code, _ = run(path)
        assert code == EXIT_OK
        payload = json.loads((Path(cfg["output"]["directory"]) / "solve_report.json").read_text())
        assert "prox" in payload["solvers"] and "elliptic" in payload["solvers"]
        assert payload["solvers"]["cross_method_l1"] < 0.1

    def test_readme_config_exits_zero(self, tmp_path):
        # the README quick-start config; both routes agree to solver precision
        path, cfg = write_config(
            tmp_path,
            grid={"dim": 1, "n_space": 64, "n_time": 32, "horizon": 1.0},
            marginals={"family": "bump_pair", "width": 0.08, "centers": [0.0, 0.5]},
            reference={"profile": "cosine", "amplitude": 0.3},
            solver={"method": "both", "eps": 0.1},
            diagnostics={"checks": ["energy", "duality", "heat_bound"]},
        )
        code, _ = run(path)
        assert code == EXIT_OK
        payload = json.loads((Path(cfg["output"]["directory"]) / "solve_report.json").read_text())
        assert payload["solvers"]["cross_method_l1"] < 1e-5

    def test_point_like_raw_data_runs(self, tmp_path):
        # raw single-cell marginals on the default 32 x 16 grid, no smoothing
        path, cfg = write_config(
            tmp_path,
            marginals={"family": "point_like", "smoothing_steps": 0},
            solver={"method": "both", "eps": 0.1},
        )
        code, _ = run(path)
        assert code == EXIT_OK
        out = Path(cfg["output"]["directory"])
        density = np.loadtxt(out / "fields_prox_density.txt", skiprows=1)
        assert np.count_nonzero(density[0]) == 1 and np.min(density[1:-1]) > 0
        payload = json.loads((out / "solve_report.json").read_text())
        assert payload["solvers"]["cross_method_l1"] < 1e-5

    def test_wrong_typed_family_parameter_exits_2(self, tmp_path):
        path, _ = write_config(tmp_path, marginals={"family": "bump_pair", "width": "x"})
        code, artifacts = run(path)
        assert code == EXIT_CONFIG and artifacts == []

    def test_required_diagnostic_failure_exit_code(self, tmp_path):
        from otgeo.cli import EXIT_DIAGNOSTIC
        path, cfg = write_config(
            tmp_path,
            diagnostics={"checks": [
                {"id": "duality", "required": True, "gap_factor": 1e-18}]},
        )
        code, artifacts = run(path)
        assert code == EXIT_DIAGNOSTIC
        assert artifacts  # artifacts are still written for inspection


    @pytest.mark.parametrize("grid, checks", [
        ({"metric_profile": {"id": "conformal_sine"}}, ["sweep"]),
        ({}, [{"id": "heat_bound", "beta": 1.0}]),
        ({}, [{"id": "heat_bound", "beta": "2"}]),
        ({"n_time": 2}, ["heat_bound"]),
        ({"n_time": 2}, [{"id": "energy", "with_heat_bound": True}]),
        ({}, [{"id": "heat_bound", "beta": float("inf")}]),
        ({}, [{"id": "duality", "gap_factor": "x"}]),
        ({}, [{"id": "duality", "gap_factor": float("nan")}]),
        ({}, [{"id": "duality", "gap_factor": -1e-4}]),
        ({}, [{"id": "displacement_convexity", "tol_conv": "x"}]),
        ({}, [{"id": "displacement_convexity", "tol_conv": -1.0}]),
        ({}, [{"id": "interior_bounds", "peaks": "ab"}]),
        ({}, [{"id": "interior_bounds", "peaks": []}]),
        ({}, [{"id": "interior_bounds", "peaks": [4.0, True]}]),
        ({}, [{"id": "interior_bounds", "window": 3}]),
        ({}, [{"id": "interior_bounds", "window": [0.75, 0.25]}]),
        ({}, [{"id": "interior_bounds", "window": [0.25, float("inf")]}]),
        ({}, [{"id": "interior_bounds", "window": [0.501, 0.502]}]),
        ({}, [{"id": "energy", "required": "no"}]),
        ({}, [{"id": "energy", "with_heat_bound": 1}]),
        # removed options: time_scaling's T_alt went with its bound, so it is unknown
        ({}, [{"id": "time_scaling", "T_alt": 0}]),
    ], ids=["conformal-sweep", "beta-one", "beta-string", "two-levels",
            "two-levels-energy", "beta-inf", "gap_factor-string", "gap_factor-nan",
            "gap_factor-negative", "tol_conv-string", "tol_conv-negative", "peaks-string",
            "peaks-empty", "peaks-bool", "window-number", "window-reversed", "window-inf",
            "window-no-node", "required-string", "with_heat_bound-number",
            "zero-horizon"])
    def test_check_rejecting_its_options_exits_2(self, tmp_path, capsys, grid, checks):
        # found by check and run alike, before anything is solved or written
        path, cfg = write_config(
            tmp_path, grid={"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0, **grid},
            solver={"method": "prox", "eps_list": [0.2, 0.1]},
            diagnostics={"checks": checks})
        assert main(["check", str(path)]) == EXIT_CONFIG
        code, artifacts = run(path)
        assert code == EXIT_CONFIG and artifacts == []
        assert "config error" in capsys.readouterr().err
        assert not Path(cfg["output"]["directory"]).exists()

    @pytest.mark.parametrize("method", ["prox", "elliptic", "both"])
    def test_time_scaling_reads_the_runs_own_solve(self, tmp_path, method):
        # at horizon 0.5 the entry carries the run's objective (the prox one
        # of both) beside one solve at horizon 1 and eps / 4
        path, cfg = write_config(
            tmp_path, grid={"dim": 1, "n_space": 32, "n_time": 16, "horizon": 0.5},
            marginals={"family": "bump_pair", "width": 0.15},
            reference={"profile": "cosine", "amplitude": 0.3},
            solver={"method": method, "eps": 0.1},
            diagnostics={"checks": [{"id": "time_scaling", "required": True}]})
        assert run(path)[0] == EXIT_OK
        out = Path(cfg["output"]["directory"])
        solvers = json.loads((out / "solve_report.json").read_text())["solvers"]
        entry, = json.loads((out / "diagnostics.json").read_text())["entries"]
        route = "elliptic" if method == "elliptic" else "prox"
        assert entry["values"]["objective_T"] == solvers[route]["objective"]
        assert entry["passed"] and entry["grid"]["horizon"] == 0.5
        assert entry["values"]["defect"] <= entry["threshold"]["defect"] < 1e-9

    def test_conformal_heat_bound_runs(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            grid={"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0,
                  "metric_profile": {"id": "conformal_sine", "amplitude": 0.5}},
            marginals={"family": "bump_pair", "width": 0.15},
            diagnostics={"checks": ["heat_bound", {"id": "energy", "with_heat_bound": True}]})
        code, _ = run(path)
        assert code == EXIT_OK
        entries = json.loads(
            (Path(cfg["output"]["directory"]) / "diagnostics.json").read_text())["entries"]
        heat, energy = entries
        assert heat["passed"] and heat["values"]["margin"] > 0
        assert energy["passed"] and "energy_ceiling" in energy["values"]

    def test_heat_bound_entry_unchanged(self, tmp_path):
        from otgeo.diagnostics import CheckEntry, _digest, _grid_info
        from otgeo.oracles import heat_competitor_bound
        path, cfg = write_config(
            tmp_path,
            marginals={"family": "bump_pair", "width": 0.15, "centers": [0.1, 0.6]},
            reference={"profile": "cosine", "amplitude": 0.3},
            solver={"method": "elliptic", "eps": 0.1},
            diagnostics={"checks": ["heat_bound"]},
        )
        code, _ = run(path)
        assert code == EXIT_OK
        out = Path(cfg["output"]["directory"])
        [entry] = json.loads((out / "diagnostics.json").read_text())["entries"]
        objective = json.loads(
            (out / "solve_report.json").read_text())["solvers"]["elliptic"]["objective"]
        # the entry as the CLI used to build it inline
        setup = validate_config(cfg)
        grid, reference, m0, m1 = setup.grid, setup.reference, setup.m0, setup.m1
        bound, parts = heat_competitor_bound(m0, m1, reference, 0.1, grid, beta=2.0)
        gap = bound - objective
        expected = CheckEntry(
            check="heat_bound", inputs_digest=_digest(m0, m1, 0.1),
            grid_info=_grid_info(grid, 0.1),
            threshold={"bound_minus_objective_min": -1e-6},
            values={"bound": bound, "objective": objective, "margin": gap, **parts},
            passed=bool(gap >= -1e-6), required=False)
        assert json.dumps(entry, sort_keys=True) == json.dumps(expected.as_dict(), sort_keys=True)


class TestCliEntry:
    def test_check_subcommand(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert main(["check", str(path)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"grid": {}}))
        assert main(["check", str(bad)]) == EXIT_CONFIG

    def test_sweep_requires_eps_list(self, tmp_path):
        path, _ = write_config(tmp_path)
        assert main(["sweep", str(path)]) == EXIT_CONFIG

    def test_sweep_runs_with_eps_list(self, tmp_path):
        path, cfg = write_config(
            tmp_path,
            grid={"dim": 1, "n_space": 32, "n_time": 16, "horizon": 1.0},
            solver={"method": "prox", "eps_list": [0.2, 0.1]},
            diagnostics={"checks": []},
        )
        assert main(["sweep", str(path), "--out", str(tmp_path / "sw")]) == EXIT_OK
        diag = json.loads((tmp_path / "sw" / "diagnostics.json").read_text())
        assert any(e["check"] == "epsilon_sweep" for e in diag["entries"])


class TestEmitPlots:
    def test_empty_report_emits_nothing(self, tmp_path):
        assert emit_plots(DiagnosticsReport(), tmp_path) == []

    def test_energy_plot_emitted_and_stable(self, tmp_path):
        g = build_grid(1, 32, 16, 1.0)
        ref = ReferenceMeasure.from_potential(0.0, g)
        m0 = np.ones(32)
        m, w, u, rep = solve_prox(m0, m0, ref, 0.1, g)
        from otgeo.diagnostics import check_energy
        report = DiagnosticsReport()
        report.add(check_energy(m, u, ref, 0.1, g, objective=rep.objective))
        p1 = emit_plots(report, tmp_path, digest="abc")
        text1 = Path(p1[0]).read_text()
        p2 = emit_plots(report, tmp_path, digest="abc")
        assert Path(p2[0]).read_text() == text1
        assert "config_digest=abc" in text1
        assert text1.startswith("<svg")

    def test_energy_plotted_at_the_interior_time_nodes(self, tmp_path, monkeypatch):
        import otgeo.cli as cli
        from otgeo.diagnostics import CheckEntry
        g = build_grid(1, 8, 16, 2.0)
        report = DiagnosticsReport()
        report.add(CheckEntry("energy", "", {"horizon": g.horizon, "n_time": g.n_time}, {},
                              {"energies": np.arange(g.n_time - 1.0), "drift": 0.0}, True))
        plotted = []

        def line_plot(series, *args, **kwargs):
            plotted.extend(series)
            return "<svg/>"
        monkeypatch.setattr(cli.svg, "line_plot", line_plot)
        emit_plots(report, tmp_path)
        [(_, t, _)] = plotted
        assert np.array_equal(t, g.time_nodes()[1:-1])
