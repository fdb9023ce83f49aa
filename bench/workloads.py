"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and runs one
timed pass in ``run``.  A pass returns its timings, one ``Op`` per checked
operation, the sha256 of every output the program wrote (for the
determinism checks) and the work counts its outputs report.

Every call into the program goes through a module attribute
(``cli.main``, ``potential.potential_sup``, ...) at call time, so the
traced run sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from plapbench import cli, field as fld, potential, synth

# The acceptance benchmark's exponents (BENCH_EXPONENTS in tests/test_acceptance.py).
SCHEME_EXPONENTS = {
    "N": 2, "p": 2.5, "q": 2.0,
    "alpha1": -0.5, "beta1": 0.3, "gamma1": 0.4, "delta1": 0.3,
    "m1": 1.0, "mhat1": 1.0,
    "alpha2": 0.3, "beta2": -0.5, "gamma2": 0.3, "delta2": 0.4,
    "m2": 1.0, "mhat2": 1.0,
    "zeta1": "inf", "zeta2": "inf",
}

RADIAL_ERR_BOUND = 0.02  # the acceptance battery's bound on the 128-cell radial error (c2)
SOLVE_3D = "ball3d-p2-128"
SWEEP_FIELDS = 300


@dataclass
class Op:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class PassResult:
    timed_s: float  # wall time of the pass's timed operations: the run_s of this pass
    ops: list[Op] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # output -> sha256
    counts: dict[str, int] = field(default_factory=dict)
    details: dict[str, float] = field(default_factory=dict)  # finer per-workload figures, logged only


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in this process; return its exit code and stdout."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
    except Exception:  # the program raised instead of returning an exit code
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def _manifest_outputs(out: Path, prefix: str) -> dict[str, str]:
    manifest = out / "manifest.json"
    if not manifest.exists():
        return {}
    return {f"{prefix}/{name}": digest for name, digest in json.loads(manifest.read_text())["files"].items()}


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def _read_json(path: Path):
    return json.loads(path.read_text()) if path.exists() else None


class SchemeWorkload:
    """CLI ``scheme`` on the acceptance config, ``verify`` on its output,
    ``report`` on both directories.  The inputs do not depend on the seed."""

    name = "scheme-64"
    seeded = False

    def setup(self, seed: int, work: Path) -> dict:
        cfg = {
            "exponents": SCHEME_EXPONENTS,
            "grid": {"N": 2, "extent": 2.0, "cells_per_axis": 64},
            "weight": {"kind": "gaussian", "amplitude": 1.0},
            "n_list": [1, 2, 4, 8],
            "rho": 0.5,
        }
        return {"scheme": _write_json(work / "scheme.json", cfg)}

    def run(self, inputs: dict, out: Path) -> PassResult:
        s_dir, v_dir = out / "scheme", out / "verify"
        verify_cfg = _write_json(
            out / "verify.json",
            {"scheme_out": str(s_dir), "t": 0.4, "s": 0.6, "R": 1.25, "h_cells": [[8, 0], [4, 0], [2, 0], [1, 0]]},
        )
        t0 = time.perf_counter()
        scheme_code, _ = run_cli(["scheme", "--config", inputs["scheme"], "--out", s_dir])
        scheme_s = time.perf_counter() - t0
        verify_code, _ = run_cli(["verify", "--config", verify_cfg, "--out", v_dir])
        reports = [run_cli(["report", "--out", d]) for d in (s_dir, v_dir)]
        elapsed = time.perf_counter() - t0

        report = _read_json(s_dir / "scheme_report.json")
        c8 = report is not None and _c8_holds(report)
        ops = [
            Op("scheme", scheme_code == 0 and c8, f"exit {scheme_code}, c8 conditions {'hold' if c8 else 'fail'}"),
            Op("verify", verify_code == 0, f"exit {verify_code}"),
        ]
        for d, (code, text) in zip(("scheme", "verify"), reports):
            problems = json.loads(text).get("problems") if code == 0 else None
            ops.append(Op(f"report-{d}", code == 0 and problems == [], f"exit {code}, problems {problems}"))
        states = _read_json(s_dir / "states.json") or []
        return PassResult(
            timed_s=elapsed,
            ops=ops,
            outputs={**_manifest_outputs(s_dir, "scheme"), **_manifest_outputs(v_dir, "verify")},
            counts={"picard_steps": sum(s["picard_iters"] for s in states)},
            details={"scheme_s": elapsed, "scheme_call_s": scheme_s},
        )


def _c8_holds(rep: dict) -> bool:
    """The acceptance battery's criterion-8 conditions on a scheme report."""
    ratios = [a / b for a, b in zip(rep["cauchy_p"], rep["cauchy_p"][1:])]
    ratios += [a / b for a, b in zip(rep["cauchy_q"], rep["cauchy_q"][1:])]
    return (
        all(rep["converged_n"])
        and all(s > 0.0 for s in rep["sigma_rho_levels"])
        and max(rep["gradient_p_norms"]) / min(rep["gradient_p_norms"]) < 2.0
        and max(rep["gradient_q_norms"]) / min(rep["gradient_q_norms"]) < 2.0
        and all(r >= 1.5 for r in ratios)
    )


class SolveLadderWorkload:
    """Cold CLI solves at tol 1e-10: p = 2.5 on seeded bumps at 64², 128² and
    192²; the unit-ball indicator at p = 1.5 and p = 3 on 128²; the 3-D unit
    ball at p = 2 on 128³.  Only the bumps depend on the seed."""

    name = "solve-ladder"
    seeded = True

    def setup(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        bumps = [
            {"center": list(b.center), "width": b.width, "amplitude": b.amplitude}
            for b in synth.draw_bump_params(rng, 2)
        ]
        cases = {}
        for n in (64, 128, 192):
            cases[f"bumps-{n}"] = {
                "grid": {"N": 2, "extent": 2.0, "cells_per_axis": n},
                "p": 2.5,
                "field": {"kind": "bumps", "bumps": bumps},
                "tol": 1e-10,
            }
        for name, N, p in (("ball-p1.5-128", 2, 1.5), ("ball-p3-128", 2, 3.0), (SOLVE_3D, 3, 2.0)):
            cases[name] = {
                "grid": {"N": N, "extent": 2.0, "cells_per_axis": 128},
                "p": p,
                "field": {"kind": "ball_indicator", "radius": 1.0},
                "domain": {"ball_radius": 1.0},
                "tol": 1e-10,
                "radial_oracle": {"R": 1.0},
            }
        return {name: _write_json(work / f"{name}.json", cfg) for name, cfg in cases.items()}

    def run(self, inputs: dict, out: Path) -> PassResult:
        res = PassResult(timed_s=0.0)
        times = {}
        errors = []
        for name, cfg in inputs.items():
            d = out / name
            t0 = time.perf_counter()
            code, _ = run_cli(["solve", "--config", cfg, "--out", d])
            times[name] = time.perf_counter() - t0
            rep = _read_json(d / "solve_report.json") or {}
            ok, detail = code == 0, f"exit {code}"
            if "radial_oracle" in json.loads(cfg.read_text()):
                err = rep.get("radial_linf_error", math.inf)
                errors.append(err)
                ok = ok and err < RADIAL_ERR_BOUND
                detail += f", radial error {err:.4g}"
            res.ops.append(Op(name, ok, detail))
            res.outputs.update(_manifest_outputs(d, name))
            res.counts[f"{name}.outer"] = rep.get("iterations", -1)
            res.counts[f"{name}.cg"] = rep.get("cg_iterations", -1)
        res.timed_s = sum(times.values())
        res.details = {
            "solve_2d_s": res.timed_s - times[SOLVE_3D],
            "solve_3d_s": times[SOLVE_3D],
            "radial_err_max": max(errors),
        }
        return res


class PotentialSweepWorkload:
    """Phase A: ``potential_sup`` over B_1 (R = 2, 64 nodes) and the Hölder
    bounds at r = 3 and 6 for seeded bump fields on one 64² grid.  Phase B:
    CLI ``potential`` on a constant field at 256² and 64³.  Only the phase-A
    fields depend on the seed."""

    name = "potential-sweep"
    seeded = True

    def setup(self, seed: int, work: Path) -> dict:
        rng = np.random.default_rng(seed)
        grid = fld.Grid(2, 2.0, 64)
        fields = [synth.bump_field(grid, synth.draw_bump_params(rng, 2)) for _ in range(SWEEP_FIELDS)]
        large = {}
        for name, N, n in (("const-256x2", 2, 256), ("const-64x3", 3, 64)):
            cfg = {
                "grid": {"N": N, "extent": 2.0, "cells_per_axis": n},
                "field": {"kind": "constant", "value": 1.0},
                "R": 1.0,
                "x": [0.0] * N,
                "holder_r": [6.0],
            }
            large[name] = (N, _write_json(work / f"{name}.json", cfg))
        return {
            "fields": fields,
            "interior": fld.ball_mask(grid, (0.0, 0.0), 1.0),
            "quad": potential.PotentialQuadrature(num_nodes=64),
            "large": large,
        }

    def run(self, inputs: dict, out: Path) -> PassResult:
        res = PassResult(timed_s=0.0)
        t0 = time.perf_counter()
        values = [self._sweep_one(f, inputs["interior"], inputs["quad"]) for f in inputs["fields"]]
        sweep_s = time.perf_counter() - t0
        for k, (sup, bounds) in enumerate(values):
            ok = len(bounds) == 2 and all(sup <= b for b in bounds)
            res.ops.append(Op(f"field-{k}", ok, f"sup {sup:.6g}, bounds {bounds}"))
        res.outputs["sweep/values"] = hashlib.sha256(repr(values).encode()).hexdigest()

        large_s = 0.0
        for name, (N, cfg) in inputs["large"].items():
            d = out / name
            t0 = time.perf_counter()
            code, _ = run_cli(["potential", "--config", cfg, "--out", d])
            large_s += time.perf_counter() - t0
            value = (_read_json(d / "potential_report.json") or {}).get("value_at_x", math.nan)
            exact = math.sqrt(math.pi ** (N / 2) / math.gamma(N / 2 + 1))  # R sqrt(omega_N), R = 1
            ok = code == 0 and abs(value - exact) / exact < 0.01
            res.ops.append(Op(name, ok, f"exit {code}, value {value:.6g} vs {exact:.6g}"))
            res.outputs.update(_manifest_outputs(d, name))
        res.timed_s = sweep_s + large_s
        res.counts["fields"] = len(values)
        res.details = {"sweep_fields_per_s": len(values) / sweep_s, "profile_large_s": large_s}
        return res

    @staticmethod
    def _sweep_one(f, interior, quad) -> tuple[float, list[float]]:
        """The potential sup of one field and its two Hölder bounds (none if the program failed)."""
        try:
            sup = potential.potential_sup(f, interior, 2.0, quad)
            return sup, [potential.potential_holder_bound(f, r, 2) for r in (3.0, 6.0)]
        except Exception:
            traceback.print_exc()
            return math.nan, []


WORKLOADS = {wl.name: wl for wl in (SchemeWorkload(), SolveLadderWorkload(), PotentialSweepWorkload())}
