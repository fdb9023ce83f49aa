"""Batch command-line front end: config in, files and reports out.

Commands (one per process):

    check      admissibility report for an exponent configuration
    solve      single Dirichlet solve, field + report out
    potential  nonlinear potential of a field: value, profile CSV, bounds
    scheme     approximating-system run, per-level fields + report
    verify     compactness verification on a scheme output directory
    report     re-hash a run directory against its manifest

Every command reads one JSON config (--config), writes its artifacts under
an output directory (--out), and finishes by writing ``manifest.json``
listing the seed, the config hash, and the SHA-256 of every artifact.
Outputs are canonical (sorted keys, fixed separators, no timestamps), so a
rerun with identical config and seed produces byte-identical files;
``report`` verifies exactly that.  Exit codes: 0 pass, 1 analytic
failure (non-convergence, failed verdict, manifest mismatch), 2 usage or
configuration error.

The seed only influences commands whose config asks for drawn fields
(``random_bumps``); everything else is deterministic outright.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .estimates import comptest_chain, rfk_decay
from .field import (
    Grid,
    Region,
    ScalarField,
    ball_mask,
    export_csv,
    load_field,
    save_field,
)
from .hypotheses import admissibility_report, config_from_dict, derive
from .plap_solver import DirichletProblem, SolverDivergenceError, exact_radial, solve
from .potential import (
    PotentialQuadrature,
    potential_P,
    potential_holder_bound,
    potential_profile,
)
from .scheme import ReactionSpec, SystemState, make_weight, frozen_reactions, run_scheme
from .synth import BumpParams, bump_field, draw_bump_params


class ConfigError(ValueError):
    """Raised for malformed or inconsistent command configuration."""


def _json_safe(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("NaN has no canonical JSON form")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, inf as a string."""
    return json.dumps(_json_safe(obj), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _OutputDir:
    """Makes the directory on the first write, tracks the artifacts, finishes with the manifest."""

    def __init__(self, root: Path, command: str, seed: int, config_text: str):
        self.root = root
        self.command = command
        self.seed = seed
        self.config_sha = hashlib.sha256(config_text.encode()).hexdigest()
        self.files: dict[str, str] = {}

    def path(self, name: str) -> Path:
        self.root.mkdir(parents=True, exist_ok=True)
        return self.root / name

    def register(self, name: str) -> None:
        self.files[name] = _sha256(self.root / name)

    def write_json(self, name: str, obj: Any) -> None:
        self.path(name).write_text(canonical_json(obj))
        self.register(name)

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "seed": self.seed,
            "config_sha256": self.config_sha,
            "files": dict(sorted(self.files.items())),
        }
        self.path("manifest.json").write_text(canonical_json(manifest))


# the top-level keys each command reads; any other key is a config error
_CONFIG_KEYS = {
    "check": {"exponents"},
    "solve": {"grid", "field", "domain", "p", "eps_reg", "tol", "max_iter", "radial_oracle"},
    "potential": {"grid", "field", "R", "x", "num_nodes", "rho_min", "holder_r"},
    "scheme": {"exponents", "grid", "weight", "coeffs", "n_list", "rho", "picard"},
    "verify": {"scheme_out", "t", "s", "R", "h_cells", "r"},
}


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing the key {key!r}")
    return cfg[key]


def _grid_from(cfg: dict) -> Grid:
    g = _require(cfg, "grid")
    return Grid(int(_require(g, "N")), float(_require(g, "extent")), int(_require(g, "cells_per_axis")))


def _field_from_spec(grid: Grid, spec: dict, rng: np.random.Generator) -> ScalarField:
    kind = _require(spec, "kind")
    if kind == "constant":
        return ScalarField(grid, np.full(grid.shape, float(_require(spec, "value"))))
    if kind == "ball_indicator":
        radius = float(_require(spec, "radius"))
        value = float(spec.get("value", 1.0))
        mask = ball_mask(grid, tuple(spec.get("center", (0.0,) * grid.N)), radius).mask
        return ScalarField(grid, np.where(mask, value, 0.0))
    if kind == "bumps":
        params = [
            BumpParams(tuple(float(c) for c in b["center"]), float(b["width"]), float(b["amplitude"]))
            for b in _require(spec, "bumps")
        ]
        return bump_field(grid, params)
    if kind == "random_bumps":
        params = draw_bump_params(
            rng,
            grid.N,
            max_bumps=int(spec.get("max_bumps", 3)),
            center_halfwidth=float(spec.get("center_halfwidth", 0.5)),
        )
        return bump_field(grid, params)
    if kind == "file":
        fld = load_field(_require(spec, "path"))
        if not isinstance(fld, ScalarField):
            raise ConfigError("field file holds a vector field, expected scalar")
        if fld.grid != grid:
            raise ConfigError("field file grid does not match the configured grid")
        return fld
    raise ConfigError(f"unknown field kind {kind!r}")


def _domain_from(cfg: dict, grid: Grid) -> Region | None:
    dom = cfg.get("domain")
    if dom is None:
        return None
    radius = float(_require(dom, "ball_radius"))
    return ball_mask(grid, tuple(dom.get("center", (0.0,) * grid.N)), radius)


def cmd_check(cfg: dict, out: _OutputDir) -> int:
    report = admissibility_report(config_from_dict(_require(cfg, "exponents")))
    out.write_json("admissibility.json", report.to_json_dict())
    return 0 if report.admissible else 1


def cmd_solve(cfg: dict, out: _OutputDir, rng: np.random.Generator) -> int:
    grid = _grid_from(cfg)
    f = _field_from_spec(grid, _require(cfg, "field"), rng)
    domain = _domain_from(cfg, grid)
    eps_reg = cfg.get("eps_reg")
    prob = DirichletProblem(
        grid,
        float(_require(cfg, "p")),
        f,
        eps_reg=None if eps_reg is None else float(eps_reg),
        tol=float(cfg.get("tol", 1e-10)),
        max_iter=int(cfg.get("max_iter", 200)),
        domain=domain,
    )
    u, rep = solve(prob)
    save_field(u, out.path("solution.fld"))
    out.register("solution.fld")
    report = rep.to_json_dict()
    oracle = cfg.get("radial_oracle")
    if oracle is not None:
        R = float(_require(oracle, "R"))
        rr = np.sqrt(grid.squared_distance((0.0,) * grid.N))
        ex = exact_radial(prob.p, grid.N, R, np.minimum(rr, R))
        inner = ball_mask(grid, (0.0,) * grid.N, 0.8 * R)
        err = float(np.max(np.abs(u.values - ex)[inner.mask])) / float(np.max(np.abs(ex[inner.mask])))
        report["radial_linf_error"] = err
    out.write_json("solve_report.json", report)
    return 0 if rep.converged else 1


def _cast(kind: type, value: Any, key: str) -> Any:
    """value as a number of type kind; a value that is not one is a config error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number: {exc}") from exc


def _cast_list(kind: type, values: Any, key: str) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list of numbers")
    return [_cast(kind, v, key) for v in values]


def cmd_potential(cfg: dict, out: _OutputDir, rng: np.random.Generator) -> int:
    grid = _grid_from(cfg)
    f = _field_from_spec(grid, _require(cfg, "field"), rng)
    R = _cast(float, _require(cfg, "R"), "R")
    rho_min = None if cfg.get("rho_min") is None else _cast(float, cfg["rho_min"], "rho_min")
    quad = PotentialQuadrature(_cast(int, cfg.get("num_nodes", 64), "num_nodes"), rho_min)
    x = _cast_list(float, cfg["x"], "x") if "x" in cfg else [0.0] * grid.N
    # every value is cast and every bound formed before the profile, so a bad config writes nothing
    holder_r = _cast_list(float, cfg.get("holder_r", []), "holder_r")
    bounds = {str(r): potential_holder_bound(f, r, grid.N) for r in holder_r}
    value = potential_P(f, x, R, quad)
    profile = potential_profile(f, R, quad)
    export_csv(profile, out.path("potential_profile.csv"))
    out.register("potential_profile.csv")
    report: dict[str, Any] = {
        "R": R,
        "x": x,
        "value_at_x": value,
        "sup_over_box": float(np.max(profile.values)),
        "num_nodes": quad.num_nodes,
    }
    if bounds:
        report["holder_bounds"] = bounds
    out.write_json("potential_report.json", report)
    return 0


def _spec_from(cfg: dict) -> ReactionSpec:
    grid = _grid_from(cfg)
    weight = cfg.get("weight", {"kind": "gaussian", "amplitude": 1.0})
    a = make_weight(str(_require(weight, "kind")), float(_require(weight, "amplitude")), grid)
    coeffs = cfg.get("coeffs", {})
    return ReactionSpec(
        exponents=config_from_dict(_require(cfg, "exponents")),
        weight_a1=a,
        weight_a2=a,
        coeff_grad1_own=float(coeffs.get("grad1_own", 1.0)),
        coeff_grad1_other=float(coeffs.get("grad1_other", 1.0)),
        coeff_grad2_own=float(coeffs.get("grad2_own", 1.0)),
        coeff_grad2_other=float(coeffs.get("grad2_other", 1.0)),
    )


# the keywords of picard_solve_level that a scheme config may set
_PICARD_KEYS = {"damping": float, "tol": float, "max_picard": int, "solver_tol": float, "solver_max_iter": int}


def _picard_from(cfg: dict) -> dict:
    picard = cfg.get("picard", {})
    if not isinstance(picard, dict):
        raise ConfigError("picard must be a JSON object")
    unknown = sorted(set(picard) - set(_PICARD_KEYS))
    if unknown:
        raise ConfigError(f"unknown picard keys {unknown}; allowed: {sorted(_PICARD_KEYS)}")
    return {k: _cast(_PICARD_KEYS[k], v, f"picard.{k}") for k, v in picard.items()}


def cmd_scheme(cfg: dict, out: _OutputDir, config_text: str) -> int:
    spec = _spec_from(cfg)
    n_list = [int(n) for n in _require(cfg, "n_list")]
    rho = float(_require(cfg, "rho"))
    states, report = run_scheme(spec, n_list, rho, **_picard_from(cfg))
    for state in states:
        for name, fld in (("u", state.u), ("v", state.v)):
            fname = f"level_{state.n:04d}_{name}.fld"
            save_field(fld, out.path(fname))
            out.register(fname)
    out.path("config.json").write_text(config_text)
    out.register("config.json")
    out.write_json("states.json", [s.summary() for s in states])
    out.write_json("scheme_report.json", report.to_json_dict())
    return 0 if all(report.converged_n) else 1


def _load_scheme_output(scheme_dir: Path) -> tuple[ReactionSpec, list[SystemState], dict]:
    cfg = json.loads((scheme_dir / "config.json").read_text())
    spec = _spec_from(cfg)
    summaries = json.loads((scheme_dir / "states.json").read_text())
    states = []
    for summ in summaries:
        n = int(summ["n"])
        u = load_field(scheme_dir / f"level_{n:04d}_u.fld")
        v = load_field(scheme_dir / f"level_{n:04d}_v.fld")
        states.append(
            SystemState(
                n=n,
                eps=1.0 / n,
                u=u,
                v=v,
                picard_iters=int(summ["picard_iters"]),
                increment_p=float(summ["increment_p"]),
                increment_q=float(summ["increment_q"]),
                converged=bool(summ["converged"]),
                hypotheses_ok=bool(summ["hypotheses_ok"]),
            )
        )
    return spec, states, cfg


def _decay_csv(path: Path, table) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h_cells", "h_mag", "sup_over_n"] + [f"n_index_{i}" for i in range(len(table.rows[0].per_n))])
        for row in table.rows:
            writer.writerow([" ".join(str(c) for c in row.h_cells), repr(row.h_mag), repr(row.sup_over_n)]
                            + [repr(x) for x in row.per_n])


def _chain_csv(path: Path, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "h_cells", "h_mag", "lhs", "rhs", "ratio", "verdict"])
        for n, rep in reports:
            writer.writerow(
                [
                    n,
                    " ".join(str(c) for c in rep.context["h_cells"]),
                    repr(rep.context["h_mag"]),
                    repr(rep.lhs),
                    repr(rep.rhs),
                    repr(rep.constant_estimate),
                    rep.verdict,
                ]
            )


def cmd_verify(cfg: dict, out: _OutputDir) -> int:
    scheme_dir = Path(_require(cfg, "scheme_out"))
    if not (scheme_dir / "config.json").exists():
        raise ConfigError(f"{scheme_dir} does not look like a scheme output directory")
    spec, states, _ = _load_scheme_output(scheme_dir)
    c = spec.exponents
    t = float(_require(cfg, "t"))
    s = float(_require(cfg, "s"))
    R = float(_require(cfg, "R"))
    h_cells_list = [tuple(int(x) for x in cells) for cells in _require(cfg, "h_cells")]
    r = cfg.get("r")
    if r is None:
        r = derive(c).r_window.midpoint()
    r = float(r)

    chain_reports = []
    for state in states:
        rhs_f, _ = frozen_reactions(spec, state)
        for cells in h_cells_list:
            rep = comptest_chain(state.u, rhs_f, c.p, r, cells, t, s, R)
            chain_reports.append((state.n, rep))
    table = rfk_decay([st.u for st in states], c.p, t, h_cells_list)

    chain_ok = all(rep.verdict for _, rep in chain_reports)
    sups = [row.sup_over_n for row in table.rows]
    decay_ok = all(b <= 1.05 * a for a, b in zip(sups, sups[1:]))

    _decay_csv(out.path("decay_table.csv"), table)
    out.register("decay_table.csv")
    _chain_csv(out.path("chain_reports.csv"), chain_reports)
    out.register("chain_reports.csv")
    out.write_json("decay_table.json", table.to_json_dict())
    out.write_json(
        "verify_report.json",
        {
            "r": r,
            "t": t,
            "s": s,
            "R": R,
            "chain_instances": len(chain_reports),
            "chain_all_ok": chain_ok,
            "decay_non_increasing": decay_ok,
            "chain": [dict(n=n, **rep.to_json_dict()) for n, rep in chain_reports],
        },
    )
    return 0 if chain_ok and decay_ok else 1


def cmd_report(out_dir: Path) -> int:
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest.json in {out_dir}", file=sys.stderr)
        return 1
    manifest = json.loads(manifest_path.read_text())
    bad = []
    for name, digest in manifest.get("files", {}).items():
        path = out_dir / name
        if not path.exists():
            bad.append(f"{name}: missing")
        elif _sha256(path) != digest:
            bad.append(f"{name}: hash mismatch")
    summary = {
        "command": manifest.get("command"),
        "files_listed": len(manifest.get("files", {})),
        "problems": bad,
    }
    print(canonical_json(summary), end="")
    return 0 if not bad else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="plapbench",
        description="batch workbench: hypothesis checks, p-Laplacian solves, potentials, scheme runs",
    )
    parser.add_argument("command", choices=["check", "solve", "potential", "scheme", "verify", "report"])
    parser.add_argument("--config", help="path to the JSON config for the command")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for drawn fields (default 0)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    out_root = Path(args.out)
    if args.command == "report":
        try:
            return cmd_report(out_root)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.config is None:
        print("error: --config is required for this command", file=sys.stderr)
        return 2
    try:
        config_text = Path(args.config).read_text()
        cfg = json.loads(config_text)
        if not isinstance(cfg, dict):
            raise ConfigError("config root must be a JSON object")
        allowed = _CONFIG_KEYS[args.command]
        unknown = sorted(set(cfg) - allowed)
        if unknown:
            raise ConfigError(f"unknown {args.command} config keys {unknown}; allowed: {sorted(allowed)}")
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    out = _OutputDir(out_root, args.command, args.seed, config_text)
    try:
        if args.command == "check":
            code = cmd_check(cfg, out)
        elif args.command == "solve":
            code = cmd_solve(cfg, out, rng)
        elif args.command == "potential":
            code = cmd_potential(cfg, out, rng)
        elif args.command == "scheme":
            code = cmd_scheme(cfg, out, config_text)
        else:
            code = cmd_verify(cfg, out)
    except SolverDivergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.finish()
    return code


if __name__ == "__main__":
    sys.exit(main())
