"""Command-line driver: exit codes, manifests, and byte-level determinism."""

import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _peak import traced_peak
from plapbench import cli, estimates, plap_solver, scheme
from plapbench.cli import _SCHEMAS, _OutputDir, _check, canonical_json, main
from plapbench.field import _HEADER, _MAGIC, Grid, ScalarField, ball_mask, load_field, save_field
from plapbench.plap_solver import AnalyticFailure, exact_radial

GOOD_EXPONENTS = {
    "N": 3, "p": 2.5, "q": 2.0,
    "alpha1": -0.5, "beta1": 0.3, "gamma1": 0.4, "delta1": 0.3,
    "m1": 1.0, "mhat1": 1.0,
    "alpha2": 0.3, "beta2": -0.5, "gamma2": 0.3, "delta2": 0.4,
    "m2": 1.0, "mhat2": 1.0,
    "zeta1": "inf", "zeta2": "inf",
}

SCHEME_CFG = {
    "exponents": {**GOOD_EXPONENTS, "N": 2},
    "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 24},
    "weight": {"kind": "gaussian", "amplitude": 1.0},
    "n_list": [1, 2],
    "rho": 0.5,
    "picard": {"tol": 1e-4},
}


def run(tmp_path, command, cfg, name="cfg.json", seed=0, out="out"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / out
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir), "--seed", str(seed)])
    return code, out_dir


def tree_bytes(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def test_canonical_json_layout():
    s = canonical_json({"b": 1, "a": [math.inf, -math.inf], "c": np.float64(0.5)})
    assert s == '{"a":["inf","-inf"],"b":1,"c":0.5}\n'
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})


def test_unserializable_report_leaves_no_directory(tmp_path):
    out = _OutputDir(tmp_path / "out", "check", 0, "{}")
    with pytest.raises(AnalyticFailure):
        out.write_json("x.json", {"a": math.nan})
    assert not out.root.exists()


def test_nan_report_value_is_an_analytic_failure(tmp_path, monkeypatch):
    # a NaN reaching a report is a failed computation: exit 1, and no manifest
    # certifies the solution written before it
    monkeypatch.setattr(cli, "_radial_linf_error", lambda *args: math.nan)
    cfg = {"grid": {"N": 2, "extent": 2.0, "cells_per_axis": 16}, "p": 2.0,
           "field": {"kind": "constant", "value": 1.0}, "radial_oracle": {"R": 1.0}}
    code, out_dir = run(tmp_path, "solve", cfg)
    assert code == 1
    assert not (out_dir / "manifest.json").exists()
    assert main(["report", "--out", str(out_dir)]) != 0


def test_check_pass_and_manifest(tmp_path):
    code, out_dir = run(tmp_path, "check", {"exponents": GOOD_EXPONENTS})
    assert code == 0
    report = json.loads((out_dir / "admissibility.json").read_text())
    assert report["admissible"] is True
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "check"
    assert manifest["seed"] == 0
    assert "admissibility.json" in manifest["files"]
    assert "timestamp" not in manifest


def test_check_fail_exit_code(tmp_path):
    bad = {**GOOD_EXPONENTS, "beta1": 0.9, "alpha2": 1.4}  # breaks the product condition
    code, out_dir = run(tmp_path, "check", {"exponents": bad})
    assert code == 1
    report = json.loads((out_dir / "admissibility.json").read_text())
    assert report["admissible"] is False


def test_config_errors_exit_2(tmp_path):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    assert main(["check", "--config", str(cfg_path), "--out", str(tmp_path / "o1")]) == 2
    # missing required key
    code, _ = run(tmp_path, "check", {"wrong": 1}, name="c2.json", out="o2")
    assert code == 2
    # config root must be an object
    cfg_path2 = tmp_path / "list.json"
    cfg_path2.write_text("[1,2]")
    assert main(["check", "--config", str(cfg_path2), "--out", str(tmp_path / "o3")]) == 2
    # missing --config entirely
    assert main(["check", "--out", str(tmp_path / "o4")]) == 2
    # unknown command and missing --out are argparse errors
    assert main(["frobnicate", "--out", str(tmp_path / "o5")]) == 2
    assert main(["check"]) == 2


def test_solve_radial_oracle(tmp_path):
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 64},
        "p": 2.0,
        "field": {"kind": "ball_indicator", "radius": 1.0},
        "domain": {"ball_radius": 1.0},
        "tol": 1e-12,
        "radial_oracle": {"R": 1.0},
    }
    code, out_dir = run(tmp_path, "solve", cfg)
    assert code == 0
    report = json.loads((out_dir / "solve_report.json").read_text())
    assert report["converged"] is True
    assert report["radial_linf_error"] < 0.02
    u = load_field(out_dir / "solution.fld")
    assert u.grid.cells_per_axis == 64
    assert u.values.max() > 0.0


def test_radial_oracle_centers_on_the_domain(tmp_path):
    # the same ball, data and grid, shifted by 8 whole cells along x1: the
    # solution moves with it and the oracle, measured from domain.center,
    # reports the centred run's error to the bit
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 64},
        "p": 2.0,
        "field": {"kind": "ball_indicator", "radius": 1.0},
        "domain": {"ball_radius": 1.0},
        "tol": 1e-12,
        "radial_oracle": {"R": 1.0},
    }
    shifted = copy.deepcopy(cfg)
    shifted["field"]["center"] = shifted["domain"]["center"] = [0.5, 0.0]
    assert run(tmp_path, "solve", cfg, name="a.json", out="a") == (0, tmp_path / "a")
    assert run(tmp_path, "solve", shifted, name="b.json", out="b") == (0, tmp_path / "b")
    u_a, u_b = (load_field(tmp_path / d / "solution.fld").values for d in "ab")
    assert np.array_equal(u_b, np.roll(u_a, 8, axis=0))
    err_a, err_b = (json.loads((tmp_path / d / "solve_report.json").read_text())["radial_linf_error"] for d in "ab")
    assert err_b == err_a < 0.02


@pytest.mark.parametrize("n, center, R", [
    (15, (0.0, 0.0, 0.0), 1.0),
    (16, (0.3, -0.45, 0.1), 0.9),
    (12, (1.2, 0.0, -1.0), 1.5),  # the inner ball leaves the box
    (10, (0.0, 0.0, 0.0), 3.0),  # ... on every side
])
def test_cropped_radial_oracle_equals_full_grid_formula(n, center, R):
    grid = Grid(3, 2.0, n)
    u = ScalarField(grid, np.random.default_rng(n).standard_normal(grid.shape))
    for p in (1.5, 2.0, 3.0):
        ex = exact_radial(p, 3, R, np.minimum(np.sqrt(grid.squared_distance(center)), R))
        inner = ball_mask(grid, center, 0.8 * R).mask
        full = float(np.max(np.abs(u.values - ex)[inner])) / float(np.max(np.abs(ex[inner])))
        assert cli._radial_linf_error(u, p, R, center) == full


def test_radial_oracle_without_inner_cells_exits_2(tmp_path):
    # no cell centre within 0.8 R, or R <= 0: the config fails before the solve, so nothing is written
    for R in (0.1, -1.0):
        cfg = {"grid": {"N": 3, "extent": 2.0, "cells_per_axis": 8}, "p": 2.0,
               "field": {"kind": "constant", "value": 1.0}, "radial_oracle": {"R": R}}
        code, out = run(tmp_path, "solve", cfg)
        assert code == 2, R
        assert not out.exists(), R


def test_solve_frees_the_configured_field_before_its_first_cg_run(tmp_path, monkeypatch):
    # cmd_solve keeps no reference to its problem, so the solver frees the
    # full-grid f once it is on the crop, before the first operator exists
    refs, alive = [], []
    field_from_spec, pcg = cli._field_from_spec, plap_solver._pcg

    def taken(*args):
        f = field_from_spec(*args)
        refs.append(weakref.ref(f.values))
        return f

    def spy(*args, **kwargs):
        alive.append(refs[0]() is not None)
        return pcg(*args, **kwargs)

    monkeypatch.setattr(cli, "_field_from_spec", taken)
    monkeypatch.setattr(plap_solver, "_pcg", spy)
    cfg = {"grid": {"N": 3, "extent": 2.0, "cells_per_axis": 16}, "p": 2.0,
           "field": {"kind": "ball_indicator", "radius": 1.0}, "domain": {"ball_radius": 1.0},
           "radial_oracle": {"R": 1.0}}
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 0
    assert alive[0] is False


def _ball_solve_peak(tmp_path, n, p):
    """The traced peak of a CLI solve on the 3-D unit ball at n^3 cells, in full float64 grid arrays,
    and its report; the solve converges, meets the radial oracle within 0.02 and report finds no problem."""
    cfg = {
        "grid": {"N": 3, "extent": 2.0, "cells_per_axis": n},
        "p": p,
        "field": {"kind": "ball_indicator", "radius": 1.0},
        "domain": {"ball_radius": 1.0},
        "tol": 1e-10,
        "radial_oracle": {"R": 1.0},
    }
    (code, out_dir), peak = traced_peak(lambda: run(tmp_path, "solve", cfg))
    assert code == 0
    assert main(["report", "--out", str(out_dir)]) == 0
    rep = json.loads((out_dir / "solve_report.json").read_text())
    assert rep["converged"] and rep["radial_linf_error"] < 0.02, rep
    return peak / (8 * n**3), rep


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_solve_memory_stays_within_budget(tmp_path, p):
    # traced peak of a whole CLI solve on the 3-D unit ball at 64^3: the
    # domain mask (0.125), the solver's arrays on the ball's bounding box (1/8
    # of the grid), and the solution's full-grid array, formed once the solver
    # context and its operators are gone (the oracle reads only its inner
    # ball's box).  The CLI's full-grid f is freed once the solver holds it on
    # the crop, before the first operator.  At p = 2 the peak sits in the
    # V-cycle's finest post-smoothing, at p = 3 in a Hessian apply.  The
    # budgets sit 1 % and 3 % above the peaks, 2.307 and 3.783 arrays (3.31
    # and 4.78 while the CLI held f through the solve)
    peak, _ = _ball_solve_peak(tmp_path, 64, p)
    assert peak <= {2.0: 2.33, 3.0: 3.90}[p]


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_128_cell_ball_solve_memory_stays_within_budget(tmp_path, p):
    # the same solve at 128^3, where the ball's bounding box holds a smaller
    # share of the bordered crop: the peaks are 2.092 and 3.449 arrays (3.09
    # and 4.45 while the CLI held f through the solve).  p = 2 is held 1.4 %
    # above its peak; p = 3 to 3.55, 2.9 % above.  p = 2 takes one outer step
    # of 14 CG iterations, p = 3 seven Newton steps of 29 in all
    peak, rep = _ball_solve_peak(tmp_path, 128, p)
    assert peak <= {2.0: 2.12, 3.0: 3.55}[p]
    assert (rep["iterations"], rep["cg_iterations"]) == {2.0: (1, 14), 3.0: (7, 29)}[p]


def test_full_box_p2_solve_memory_stays_within_the_vcycle_peak(tmp_path):
    # the same solve without the domain mask: every solver array spans the
    # whole 64^3 box, and the p = 2 CG is preconditioned by the exact
    # sine-transform inverse, whose FFTs form their 2n values one axis at a
    # time.  Its peak is 14.68 full arrays here and 14.76 in a fresh
    # interpreter (15.68 and 15.76 while the CLI held f through the solve);
    # the budget sits 1 % above the latter
    n = 64
    cfg = {
        "grid": {"N": 3, "extent": 2.0, "cells_per_axis": n},
        "p": 2.0,
        "field": {"kind": "ball_indicator", "radius": 1.0},
        "tol": 1e-10,
        "radial_oracle": {"R": 1.0},
    }
    (code, out_dir), peak = traced_peak(lambda: run(tmp_path, "solve", cfg))
    assert code == 0
    rep = json.loads((out_dir / "solve_report.json").read_text())
    assert (rep["iterations"], rep["cg_iterations"]) == (1, 1)
    assert peak <= 14.91 * 8 * n**3


def test_failed_save_leaves_no_partial_artifact(tmp_path, monkeypatch):
    def torn_save(field, path):
        Path(path).write_bytes(b"PLAPFLD1 and then the disk filled up")
        raise OSError(28, "No space left on device")

    cfg = {"grid": {"N": 2, "extent": 2.0, "cells_per_axis": 16}, "p": 2.0,
           "field": {"kind": "constant", "value": 1.0}}
    code, out_dir = run(tmp_path, "solve", cfg, out="ok")
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.json", "solution.fld", "solve_report.json"]
    monkeypatch.setattr(cli, "save_field", torn_save)
    code, out_dir = run(tmp_path, "solve", cfg, out="torn")
    assert code == 2
    assert list(out_dir.iterdir()) == []


def test_solve_nonconvergence_exit_1(tmp_path):
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 24},
        "p": 3.0,
        "field": {"kind": "constant", "value": 1.0},
        "tol": 1e-14,
        "max_iter": 1,
    }
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 1


def test_overflowing_certificate_exits_1(tmp_path):
    # at f = 1e200 the squared norm of f overflows, so the certificate's target
    # and the residual norm are both inf; the solve fails (exit 1, no manifest)
    # instead of certifying u = 0.  f = 1e100 stays in range and converges
    cfg = {"grid": {"N": 2, "extent": 1.0, "cells_per_axis": 64}, "p": 2.0,
           "field": {"kind": "constant", "value": 1e200}, "domain": {"ball_radius": 1.0}, "tol": 1e-9}
    code, out_dir = run(tmp_path, "solve", cfg, out="huge")
    assert code == 1
    assert not (out_dir / "manifest.json").exists()
    cfg["field"]["value"] = 1e100
    code, out_dir = run(tmp_path, "solve", cfg, out="large")
    assert code == 0
    assert json.loads((out_dir / "solve_report.json").read_text())["converged"]


def test_solve_random_bumps_seed_flow(tmp_path):
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 16},
        "p": 2.0,
        "field": {"kind": "random_bumps", "max_bumps": 2},
        "tol": 1e-10,
    }
    _, out_a = run(tmp_path, "solve", cfg, seed=5, out="a")
    _, out_b = run(tmp_path, "solve", cfg, seed=5, out="b")
    _, out_c = run(tmp_path, "solve", cfg, seed=6, out="c")
    assert tree_bytes(out_a) == tree_bytes(out_b)
    assert tree_bytes(out_a)["solution.fld"] != tree_bytes(out_c)["solution.fld"]


def test_potential_report(tmp_path):
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 64},
        "field": {"kind": "constant", "value": 1.0},
        "R": 1.0,
        "holder_r": [6.0],
    }
    code, out_dir = run(tmp_path, "potential", cfg)
    assert code == 0
    report = json.loads((out_dir / "potential_report.json").read_text())
    assert abs(report["value_at_x"] - math.sqrt(math.pi)) < 0.02
    assert report["sup_over_box"] >= report["value_at_x"] - 1e-12
    assert report["holder_bounds"]["6.0"] >= report["sup_over_box"]
    header = (out_dir / "potential_profile.csv").read_text().splitlines()[0]
    assert header.startswith("#") or "," in header


@pytest.mark.parametrize("value, holder_r", [(1e160, []), (1e154, []), (1e60, [6.0])])
def test_potential_overflow_is_an_analytic_failure(tmp_path, value, holder_r):
    # f^2 of 1e160, f^2 of 1e154 summed over a ball and |f|^6 of 1e60 leave
    # float64's range: exit 1 before anything is written
    cfg = {
        "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 16},
        "field": {"kind": "constant", "value": value},
        "R": 1.0,
        "holder_r": holder_r,
    }
    code, out_dir = run(tmp_path, "potential", cfg)
    assert code == 1
    assert not out_dir.exists()


def test_scheme_verify_and_determinism(tmp_path, monkeypatch):
    code, scheme_out = run(tmp_path, "scheme", SCHEME_CFG, out="scheme1")
    assert code == 0
    states = json.loads((scheme_out / "states.json").read_text())
    assert [s["n"] for s in states] == [1, 2]
    assert all(s["converged"] for s in states)
    for n in (1, 2):
        assert (scheme_out / f"level_{n:04d}_u.fld").exists()
        assert (scheme_out / f"level_{n:04d}_v.fld").exists()

    # byte-identical rerun
    code2, scheme_out2 = run(tmp_path, "scheme", SCHEME_CFG, out="scheme2")
    assert code2 == 0
    assert tree_bytes(scheme_out) == tree_bytes(scheme_out2)

    # verify consumes the scheme output
    vcfg = {
        "scheme_out": str(scheme_out),
        "t": 0.4,
        "s": 0.6,
        "R": 1.25,
        "h_cells": [[3, 0], [2, 0], [1, 0]],
    }
    # the chain and its cutoff are built once per level, not once per shift
    calls = {"comptest_chain": 0, "cutoff_eta": 0}
    for module, name in ((cli, "comptest_chain"), (estimates, "cutoff_eta")):
        def counted(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counted)
    code3, verify_out = run(tmp_path, "verify", vcfg, name="v.json", out="verify")
    assert code3 == 0
    assert calls == {"comptest_chain": 2, "cutoff_eta": 2}
    vrep = json.loads((verify_out / "verify_report.json").read_text())
    assert vrep["chain_all_ok"] is True
    assert vrep["decay_non_increasing"] is True
    assert vrep["chain_instances"] == 6  # 2 levels x 3 shifts
    # r defaults to the midpoint of the derived admissible window
    assert vrep["r"] > 2.0
    table = json.loads((verify_out / "decay_table.json").read_text())
    assert len(table["rows"]) == 3

    # report validates all hashes in place
    assert main(["report", "--out", str(verify_out)]) == 0

    # tampering is caught
    target = scheme_out / "states.json"
    target.write_bytes(target.read_bytes() + b" ")
    assert main(["report", "--out", str(scheme_out)]) == 1


def _run_under_blas_threads(tmp_path, command, cfg):
    """The output directories of ``command`` run in a fresh interpreter with one OpenBLAS thread and with two."""
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "plapbench.cli", command, "--config", str(cfg_path), "--out", str(out)],
                       env=env, check=True)
        outs.append(out)
    return outs


SCHEME32_CFG = {"exponents": {**GOOD_EXPONENTS, "N": 2}, "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 32},
                "n_list": [1, 2, 4, 8], "rho": 0.5}


def test_scheme_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the V-cycle inverts its last level (at most 64 cells) with LAPACK: the
    # 32^2 four-level scheme, run with one OpenBLAS thread and with two,
    # writes the same bytes.  Each Picard step's inner solves are only as
    # tight as its increment needs, yet every level converges, in 135 CG
    # iterations in all (the q = 2 solves on the full box take one each, on
    # the exact inverse).  A warm p = 2.5 solve takes up the linearization
    # and the V-cycle the last one ended with, so 23 of the 84 outer steps
    # build a cycle (51 of 84 when every outer step builds its own).  A rerun
    # into the same --out writes the same manifest, and verify accepts the
    # levels: on 32^2 the shifts stay within the R - s band up to 4 cells
    one, two = _run_under_blas_threads(tmp_path, "scheme", SCHEME32_CFG)
    first = tree_bytes(one)
    assert first["manifest.json"] == tree_bytes(two)["manifest.json"]
    assert first == tree_bytes(two)
    levels = json.loads(first["states.json"])
    assert all(level["converged"] for level in levels)
    assert sum(level["cg_iterations"] for level in levels) <= 450
    assert sum(level["cycle_builds"] for level in levels) <= sum(level["outer_steps"] for level in levels) // 2
    code, _ = run(tmp_path, "scheme", SCHEME32_CFG, out=one.name)
    assert code == 0
    assert (one / "manifest.json").read_bytes() == first["manifest.json"]
    vcfg = {"scheme_out": str(one), "t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[4, 0], [2, 0], [1, 0]]}
    code, verify_out = run(tmp_path, "verify", vcfg, name="v.json", out="verify")
    assert code == 0
    for out in (one, verify_out):
        assert main(["report", "--out", str(out)]) == 0


BALL_48 = {"grid": {"N": 3, "extent": 2.0, "cells_per_axis": 48}, "p": 2.0,
           "field": {"kind": "ball_indicator", "radius": 1.0}, "tol": 1e-10}


@pytest.mark.parametrize(
    "cfg, work",
    [({**BALL_48, "domain": {"ball_radius": 1.0}, "radial_oracle": {"R": 1.0}}, (1, 12)), (BALL_48, (1, 1))],
    ids=["ball", "box"],
)
def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, cfg, work):
    # a p = 2 solve is one outer step.  On the 48^3 unit ball the V-cycle
    # inverts its last level with LAPACK, and CG takes 12 iterations; on the
    # whole 48^3 box the exact sine-transform inverse, numpy's FFTs and no
    # BLAS, takes one.  Under one OpenBLAS thread or two each writes the same
    # bytes, and exactly the files its manifest lists: every artifact is
    # written under a temporary name and renamed into place.  The energy,
    # read off the residual's operator apply, never rises, and the report's
    # final energy is the history's last
    one, two = _run_under_blas_threads(tmp_path, "solve", cfg)
    first = tree_bytes(one)
    assert first["manifest.json"] == tree_bytes(two)["manifest.json"]
    assert first == tree_bytes(two)
    for out in (one, two):
        assert main(["report", "--out", str(out)]) == 0
    rep = json.loads(first["solve_report.json"])
    assert (rep["iterations"], rep["cg_iterations"]) == work
    hist = rep["energy_history"]
    assert all(b <= a for a, b in zip(hist, hist[1:]))
    assert rep["final_energy"] == hist[-1]


def test_scheme_rejects_bad_picard_config(tmp_path):
    # unknown keys (the retired damping among them) and values that are not
    # numbers are config errors: exit 2 before any level runs, and no output directory
    bad = ({"bogus": 1}, {"damping": 0.5}, {"tol": [1e-4]}, {"max_picard": "many"}, [1e-4])
    for k, picard in enumerate(bad):
        code, out_dir = run(tmp_path, "scheme", {**SCHEME_CFG, "picard": picard}, name=f"p{k}.json", out=f"p{k}")
        assert code == 2, picard
        assert not out_dir.exists()


def test_scheme_refuses_exponents_of_another_dimension(tmp_path):
    # p* and the summability windows depend on N, so exponents for N = 2 say
    # nothing about a 3-D grid: scheme exits 2 and writes nothing, and verify
    # refuses a scheme directory whose config pairs another N with its grid
    cfg = {"exponents": {**GOOD_EXPONENTS, "N": 2}, "grid": {"N": 3, "extent": 2.0, "cells_per_axis": 8},
           "n_list": [1], "rho": 0.5}
    code, out_dir = run(tmp_path, "scheme", cfg)
    assert code == 2
    assert not out_dir.exists()
    code, scheme_out = run(tmp_path, "scheme", {**cfg, "grid": GRID_16}, name="s16.json", out="scheme16")
    assert code == 0
    (scheme_out / "config.json").write_text(json.dumps({**cfg, "exponents": GOOD_EXPONENTS, "grid": GRID_16}))
    vcfg = {"scheme_out": str(scheme_out), "t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[1, 0]]}
    code, verify_out = run(tmp_path, "verify", vcfg, name="v.json", out="verify")
    assert code == 2
    assert not verify_out.exists()


def test_states_json_round_trips_through_the_level_schema(tmp_path):
    # verify reads states.json back into SystemState through the level
    # schema: the states it loads, work records included, write the same bytes
    code, scheme_out = run(tmp_path, "scheme", SCHEME_CFG, out="scheme")
    assert code == 0
    _, states = cli._load_scheme_output(scheme_out)
    assert all(s.work.solves > 0 and s.work.cg_iterations > 0 for s in states)
    assert canonical_json([s.summary() for s in states]).encode() == (scheme_out / "states.json").read_bytes()


def test_scheme_positivity_breach_exits_1(tmp_path, monkeypatch):
    # a seed that breaks the positivity invariant makes the first reaction
    # evaluation fail: an analytic failure (exit 1), not a usage error, and
    # no manifest
    def negative_seed(spec, eps, *args):
        below = ScalarField(spec.grid, np.full(spec.grid.shape, -eps))
        return below, below

    monkeypatch.setattr(scheme, "_positivity_seed", negative_seed)
    code, out_dir = run(tmp_path, "scheme", SCHEME_CFG)
    assert code == 1
    assert not (out_dir / "manifest.json").exists()


GRID_16 = {"N": 2, "extent": 2.0, "cells_per_axis": 16}
CONSTANT_FIELD = {"kind": "constant", "value": 1.0}
TINY_SCHEME_CFG = {**SCHEME_CFG, "grid": GRID_16, "n_list": [1]}


@pytest.mark.parametrize(
    "command, cfg, extra",
    [
        ("check", {"exponents": GOOD_EXPONENTS}, "exponent"),
        ("solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD}, "stationarity_tol"),
        ("potential", {"grid": GRID_16, "field": CONSTANT_FIELD, "R": 1.0}, "nodes"),
        ("scheme", TINY_SCHEME_CFG, "n_levels"),
        ("verify", {"t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[1, 0]]}, "rr"),
    ],
)
def test_unknown_config_key_exit_2(tmp_path, command, cfg, extra):
    # a misspelt or retired key is a config error: exit 2, before any work and
    # without a manifest; the same config without it runs
    if command == "verify":
        code, scheme_out = run(tmp_path, "scheme", TINY_SCHEME_CFG, name="s.json", out="scheme")
        assert code == 0
        cfg = {**cfg, "scheme_out": str(scheme_out)}
    code, out_dir = run(tmp_path, command, {**cfg, extra: 1e-3}, out="bad")
    assert code == 2
    assert not out_dir.exists()
    code, out_dir = run(tmp_path, command, cfg, out="good")
    assert code == 0
    assert (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("rho_min", ["abc", [0.1], {"value": 0.1}, -0.1])
def test_potential_rejects_bad_rho_min(tmp_path, rho_min):
    # a rho_min that is not a positive number is a config error: exit 2 and
    # no output directory
    cfg = {"grid": GRID_16, "field": CONSTANT_FIELD, "R": 1.0, "rho_min": rho_min}
    code, out_dir = run(tmp_path, "potential", cfg)
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value",
    [("R", [1]), ("R", None), ("x", [[0], [0]]), ("num_nodes", [64]), ("holder_r", 6), ("holder_r", [[6]]),
     ("holder_r", [2.0])],
)
def test_potential_rejects_bad_values(tmp_path, key, value):
    # a value that is not a number (or a list of numbers), or a Hölder
    # exponent r <= N, is a config error: exit 2 before any profile is
    # computed, and no output directory
    cfg = {"grid": GRID_16, "field": CONSTANT_FIELD, "R": 1.0, key: value}
    code, out_dir = run(tmp_path, "potential", cfg)
    assert code == 2
    assert not out_dir.exists()


def test_verify_rejects_non_scheme_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    vcfg = {"scheme_out": str(tmp_path / "empty"), "t": 0.4, "s": 0.6, "R": 1.25,
            "h_cells": [[1, 0]]}
    code, _ = run(tmp_path, "verify", vcfg)
    assert code == 2


def test_report_missing_manifest(tmp_path):
    (tmp_path / "nothing").mkdir()
    assert main(["report", "--out", str(tmp_path / "nothing")]) == 1


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    # a rerun into a finished run directory that fails part-way removes the
    # old manifest, so report does not certify the mixed directory
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD})
    assert code == 0
    assert main(["report", "--out", str(out_dir)]) == 0

    def partial_export(field, path):
        Path(path).write_text("x1,x2,v\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "export_csv", partial_export)
    code, _ = run(tmp_path, "potential", {"grid": GRID_16, "field": CONSTANT_FIELD, "R": 1.0}, name="pot.json")
    assert code == 2
    assert not (out_dir / "manifest.json").exists()
    assert main(["report", "--out", str(out_dir)]) != 0


def test_report_refuses_files_of_another_run(tmp_path, capsys):
    # a potential run into a solve directory leaves the solve's files beside
    # its own manifest: report names each of them and does not certify the directory
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD})
    assert code == 0
    code, _ = run(tmp_path, "potential", {"grid": GRID_16, "field": CONSTANT_FIELD, "R": 1.0}, name="pot.json")
    assert code == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == ["solution.fld: not in manifest",
                                                               "solve_report.json: not in manifest"]


def test_report_names_a_missing_artifact(tmp_path, capsys):
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD})
    assert code == 0
    (out_dir / "solution.fld").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == ["solution.fld: missing"]


def test_report_refuses_a_linked_artifact(tmp_path, capsys):
    # a link named as the artifact would certify a file outside the run directory
    secret = tmp_path / "secret"
    secret.write_text("not a file of any run")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "data").symlink_to("../secret")
    manifest = {"command": "check", "seed": 0, "config_sha256": "0" * 64, "files": {"data": cli._sha256(secret)}}
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", "--out", str(run_dir)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == ["data: not a regular file"]


@pytest.mark.parametrize("name, target", [("extra", "/nonexistent"), ("up", "..")])
def test_report_refuses_an_unlisted_link(tmp_path, capsys, name, target):
    # an entry the manifest does not list is a problem whatever its kind: a
    # dangling link, or a link to a directory, added to a finished run
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD})
    assert code == 0
    (out_dir / name).symlink_to(target)
    capsys.readouterr()
    assert main(["report", "--out", str(out_dir)]) == 1
    assert json.loads(capsys.readouterr().out)["problems"] == [f"{name}: not in manifest"]


def test_rerun_into_the_same_directory_replaces_no_existing_file(tmp_path, monkeypatch):
    # each old artifact is removed before its successor is renamed into place
    cfg = {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD}
    code, out_dir = run(tmp_path, "solve", cfg)
    assert code == 0
    first = tree_bytes(out_dir)
    seen = []
    replace = os.replace

    def spy(src, dst):
        seen.append((Path(dst).name, os.path.lexists(dst)))
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    code, out_dir = run(tmp_path, "solve", cfg)
    assert code == 0
    assert seen == [("solution.fld", False), ("solve_report.json", False)]
    assert tree_bytes(out_dir) == first
    assert main(["report", "--out", str(out_dir)]) == 0


def test_file_field_must_match_the_grid(tmp_path):
    path = tmp_path / "f.fld"
    g = Grid(**GRID_16)
    save_field(ScalarField(g, ball_mask(g, (0.0, 0.0), 0.5).mask * 1.0), path)
    field = {"kind": "file", "path": str(path)}
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": field}, out="solve")
    assert code == 0
    assert json.loads((out_dir / "solve_report.json").read_text())["converged"] is True
    code, out_dir = run(tmp_path, "potential", {"grid": GRID_16, "field": field, "R": 1.0}, out="potential")
    assert code == 0
    assert json.loads((out_dir / "potential_report.json").read_text())["sup_over_box"] > 0.0
    other = {**GRID_16, "cells_per_axis": 8}
    code, out_dir = run(tmp_path, "solve", {"grid": other, "p": 2.0, "field": field}, out="other")
    assert code == 2
    assert not out_dir.exists()
    # a file whose header gives N components holds a vector field, not the scalar data
    vector = tmp_path / "vector.fld"
    vector.write_bytes(_HEADER.pack(_MAGIC, 2, 16, 2.0, 2) + bytes(8 * 16 * 16 * 2))
    code, out_dir = run(tmp_path, "solve", {"grid": GRID_16, "p": 2.0, "field": {"kind": "file", "path": str(vector)}},
                        out="vector")
    assert code == 2
    assert not out_dir.exists()


def test_report_malformed_manifest_exit_2(tmp_path):
    # a manifest that is not the object _OutputDir writes is a config error, and so is one that
    # lists anything but a plain file name of the run directory, even with that file's digest
    secret = tmp_path / "secret"
    secret.write_text("not a file of any run")
    digest = cli._sha256(secret)
    base = {"command": "check", "seed": 0, "config_sha256": "0" * 64}
    names = ["../secret", str(secret), "sub/secret", ".", "..", "", "manifest.json"]
    for k, manifest in enumerate([{**base, "files": []}, [1], *({**base, "files": {n: digest}} for n in names)]):
        (tmp_path / f"m{k}" / "sub").mkdir(parents=True)
        (tmp_path / f"m{k}" / "sub" / "secret").write_bytes(secret.read_bytes())
        (tmp_path / f"m{k}" / "manifest.json").write_text(json.dumps(manifest))
        assert main(["report", "--out", str(tmp_path / f"m{k}")]) == 2, manifest


def test_verify_refuses_unconverged_levels(tmp_path):
    # one Picard step leaves every level unconverged: scheme exits 1, and
    # verify refuses the levels with exit 1, writing nothing report accepts
    code, scheme_out = run(tmp_path, "scheme", {**SCHEME_CFG, "picard": {"max_picard": 1}}, out="scheme")
    assert code == 1
    assert not any(s["converged"] for s in json.loads((scheme_out / "states.json").read_text()))
    vcfg = {"scheme_out": str(scheme_out), "t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[1, 0]]}
    code, verify_out = run(tmp_path, "verify", vcfg, name="v.json", out="verify")
    assert code == 1
    assert not (verify_out / "manifest.json").exists()
    assert main(["report", "--out", str(verify_out)]) == 1


@pytest.mark.parametrize(
    "command, cfg",
    [
        # misspelt nested keys
        ("potential", {"grid": {**GRID_16, "cell_per_axis": 64}, "field": CONSTANT_FIELD, "R": 1.0}),
        ("potential", {"grid": GRID_16, "field": {**CONSTANT_FIELD, "valu": 3.0}, "R": 1.0}),
        ("solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD, "domain": {"ball_radius": 1.0, "centre": [0, 0]}}),
        ("scheme", {**TINY_SCHEME_CFG, "coeffs": {"grad1_onw": 2.0}}),
        # values that are not numbers, or not integers where one is needed
        ("solve", {"grid": GRID_16, "p": [2], "field": CONSTANT_FIELD}),
        ("scheme", {**TINY_SCHEME_CFG, "rho": [0.5]}),
        ("check", {"exponents": {**GOOD_EXPONENTS, "p": [2.5]}}),
        ("scheme", {**TINY_SCHEME_CFG, "exponents": {**TINY_SCHEME_CFG["exponents"], "p": [2.5]}}),
        ("solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD, "tol": True}),
        ("solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD, "tol": math.inf}),
        ("solve", {"grid": {**GRID_16, "cells_per_axis": 16.7}, "p": 2.0, "field": CONSTANT_FIELD}),
        # an integer beyond the float range, and NaN
        ("check", {"exponents": {**GOOD_EXPONENTS, "m1": 10**400}}),
        ("check", {"exponents": {**GOOD_EXPONENTS, "p": math.nan}}),
        # iteration caps below 1
        ("solve", {"grid": GRID_16, "p": 2.0, "field": CONSTANT_FIELD, "max_iter": 0}),
        ("scheme", {**TINY_SCHEME_CFG, "picard": {"max_picard": 0}}),
        ("scheme", {**TINY_SCHEME_CFG, "picard": {"solver_max_iter": -1}}),
        # the same misspelt grid key on a solve, and an inner solve cap of 0
        ("solve", {"grid": {**GRID_16, "cell_per_axis": 64}, "p": 2.0, "field": CONSTANT_FIELD}),
        ("scheme", {**TINY_SCHEME_CFG, "picard": {"solver_max_iter": 0}}),
    ],
)
def test_nested_config_errors_exit_2(tmp_path, command, cfg):
    code, out_dir = run(tmp_path, command, cfg)
    assert code == 2
    assert not out_dir.exists()


# one valid config per command that gives only required keys, so that
# dropping any key, or setting any value to null, makes it invalid
FUZZ_BASES = {
    "check": {"exponents": GOOD_EXPONENTS},
    "solve": {"grid": GRID_16, "p": 2.0, "field": {"kind": "ball_indicator", "radius": 1.0}},
    "potential": {
        "grid": GRID_16,
        "R": 1.0,
        "field": {"kind": "bumps", "bumps": [{"center": [0.1, 0.0], "width": 0.3, "amplitude": 1.0}]},
    },
    "scheme": {"exponents": {**GOOD_EXPONENTS, "N": 2}, "grid": GRID_16, "n_list": [1], "rho": 0.5},
    "verify": {"t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[1, 0]]},  # scheme_out is added per run
}


@pytest.fixture(scope="module")
def fuzz_bases(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    code, scheme_out = run(root, "scheme", FUZZ_BASES["scheme"], name="s.json", out="scheme")
    assert code == 0
    return root, {**FUZZ_BASES, "verify": {**FUZZ_BASES["verify"], "scheme_out": str(scheme_out)}}


def test_fuzz_bases_run(fuzz_bases):
    root, bases = fuzz_bases
    for command, cfg in bases.items():
        code, out_dir = run(root, command, cfg, name=f"{command}.json", out=f"base-{command}")
        assert code == 0, command
        assert (out_dir / "manifest.json").exists()


def _mutation_sites(node, path=()):
    """(operation, path) for every object (insert a key), object key (drop
    it) and leaf (replace it) of a config, at every depth."""
    if isinstance(node, dict):
        yield "insert", path
        for key, child in node.items():
            yield "drop", path + (key,)
            yield from _mutation_sites(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _mutation_sites(child, path + (i,))
    else:
        yield "replace", path


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_configs_exit_2(fuzz_bases, data):
    root, bases = fuzz_bases
    command = data.draw(st.sampled_from(sorted(bases)))
    cfg = copy.deepcopy(bases[command])
    op, path = data.draw(st.sampled_from(list(_mutation_sites(cfg))))
    target = cfg  # the object that holds the mutation site
    for step in path if op == "insert" else path[:-1]:
        target = target[step]
    if op == "insert":
        target["unknown_" + data.draw(st.text(max_size=8))] = 1.0
    elif op == "drop":
        del target[path[-1]]
    else:
        target[path[-1]] = data.draw(st.sampled_from([[1.0], {"value": 1.0}, True, None, "not-a-number"]))
    work = Path(tempfile.mkdtemp(dir=root))
    code, out_dir = run(work, command, cfg)
    assert code == 2, (op, path, cfg)
    assert not out_dir.exists()


def test_readme_cli_examples_fit_the_schemas():
    # every JSON example of the README's command-line section passes its
    # command's schema, and every command has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command-line driver\n")[1].split("\n## ")[0]
    seen = set()
    for subsection in section.split("\n### ")[1:]:
        command = subsection.split()[0]
        for block in re.findall(r"```json\n(.*?)```", subsection, re.S):
            _check(json.loads(block), _SCHEMAS[command], "")
            seen.add(command)
    assert seen == set(_SCHEMAS)
