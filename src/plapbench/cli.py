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
``report`` verifies exactly that, that the manifest names only regular
files of the directory (no links), and that the directory holds nothing
else: no other file, link or directory.  Exit codes:
0 pass, 1 analytic failure (non-convergence, failed verdict, manifest
mismatch), 2 usage or configuration error.

The seed only influences commands whose config asks for drawn fields
(``random_bumps``); everything else is deterministic outright.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .estimates import comptest_chain, rfk_decay
from .field import (
    Grid,
    ScalarField,
    _write_csv,
    ball_box,
    ball_mask,
    export_csv,
    load_field,
    save_field,
)
from .hypotheses import admissibility_report, config_from_dict, derive
from .jsonio import _REQUIRED, ConfigError, _check, _float_or_inf, _Kinds, _required, canonical_json
from .plap_solver import AnalyticFailure, DirichletProblem, SolverDivergenceError, SolverWork, exact_radial, solve
from .potential import (
    PotentialQuadrature,
    potential_P,
    potential_holder_bound,
    potential_profile,
)
from .scheme import ReactionSpec, SystemState, make_weight, frozen_reactions, run_scheme
from .synth import BumpParams, bump_field, draw_bump_params


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _OutputDir:
    """Lands every artifact of a run and finishes with the manifest that lists them."""

    def __init__(self, root: Path, command: str, seed: int, config_text: str):
        self.root = root
        self.command = command
        self.seed = seed
        self.config_text = config_text
        self.config_sha = hashlib.sha256(config_text.encode()).hexdigest()
        self.files: dict[str, str] = {}

    def write(self, name: str, save: Callable[[Path], Any]) -> None:
        """``save(path)`` writes the artifact ``name`` to a temporary file, which then replaces
        ``name`` in one step, or is removed if ``save`` raises; then its hash is recorded.

        The first write makes the directory and removes the manifest of an
        earlier run there, so a run that fails part-way leaves none to certify.
        """
        if not self.files:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / "manifest.json").unlink(missing_ok=True)
        tmp = self.root / f".{name}.partial"
        try:
            save(tmp)
            # a rename over an existing file can flush the new data to disk first (ext4), so the old
            # artifact goes first; the manifest is already gone, so nothing certifies the gap
            (self.root / name).unlink(missing_ok=True)
            os.replace(tmp, self.root / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        self.files[name] = _sha256(self.root / name)

    def write_json(self, name: str, obj: Any) -> None:
        try:
            text = canonical_json(obj)  # before write() makes the directory, so a NaN leaves none
        except ValueError as exc:  # a NaN: a computed value failed, not the config
            raise AnalyticFailure(f"{name}: {exc}") from exc
        self.write(name, lambda path: path.write_text(text))

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "seed": self.seed,
            "config_sha256": self.config_sha,
            "files": dict(sorted(self.files.items())),
        }
        (self.root / "manifest.json").write_text(canonical_json(manifest))


_GRID = _required(N=int, extent=float, cells_per_axis=int)
_FIELD = _Kinds(
    constant=_required(value=float),
    ball_indicator={"radius": (float, _REQUIRED), "value": (float, 1.0), "center": ([float], None)},
    bumps=_required(bumps=[_required(center=[float], width=float, amplitude=float)]),
    random_bumps={"max_bumps": (int, 3), "center_halfwidth": (float, 0.5)},
    file=_required(path=str),
)
# each command's config as key -> (spec, default); a default of None means "not given".
# The exponents go through a lambda, so a wrapper put on the name config_from_dict sees the call.
_SCHEMAS = {
    "check": _required(exponents=lambda d: config_from_dict(d)),
    "solve": {
        **_required(grid=_GRID, field=_FIELD, p=float),
        "domain": ({"ball_radius": (float, _REQUIRED), "center": ([float], None)}, None),
        "eps_reg": (float, None),
        "tol": (float, 1e-10),
        "max_iter": (int, 200),
        "radial_oracle": (_required(R=float), None),
    },
    "potential": {
        **_required(grid=_GRID, field=_FIELD, R=float),
        "x": ([float], None),
        "num_nodes": (int, 64),
        "rho_min": (float, None),
        "holder_r": ([float], []),
    },
    "scheme": {
        **_required(exponents=lambda d: config_from_dict(d), grid=_GRID, n_list=[int], rho=float),
        "weight": (_Kinds(gaussian=_required(amplitude=float)), {"kind": "gaussian", "amplitude": 1.0}),
        "coeffs": ({key: (float, 1.0) for key in ("grad1_own", "grad1_other", "grad2_own", "grad2_other")}, {}),
        # picard_solve_level's keywords; an absent one keeps that function's default
        "picard": ({"tol": (float, None), "max_picard": (int, None),
                    "solver_tol": (float, None), "solver_max_iter": (int, None)}, {}),
    },
    "verify": {**_required(scheme_out=str, t=float, s=float, R=float, h_cells=[[int]]), "r": (float, None)},
}
# one entry of a scheme directory's states.json, as SystemState.summary writes it, the work record spread
_WORK = [f.name for f in fields(SolverWork)]
_LEVEL = _required(n=int, eps=float, picard_iters=int, increment_p=_float_or_inf, increment_q=_float_or_inf,
                   converged=bool, hypotheses_ok=bool, **dict.fromkeys(_WORK, int), sup_u=float, sup_v=float)


def _file_hashes(value: Any) -> dict[str, str]:
    """The manifest's files: each a plain file name in the run directory, other than the manifest's own."""
    if isinstance(value, dict) and all(isinstance(digest, str) for digest in value.values()):
        for name in value:
            if os.path.basename(name) != name or name in ("", ".", "..", "manifest.json"):
                raise ValueError(f"lists {name!r}, which is not a file name of the run directory")
        return value
    raise ValueError(f"must be an object of file name -> SHA-256 string, got {value!r}")


# a run directory's manifest.json, as _OutputDir.finish writes it
_MANIFEST = _required(command=str, seed=int, config_sha256=str, files=_file_hashes)


def _point(value: list[float] | None, grid: Grid) -> tuple[float, ...]:
    """A configured point; the origin when none is given."""
    return (0.0,) * grid.N if value is None else tuple(value)


def _field_from_spec(grid: Grid, spec: dict, seed: int) -> ScalarField:
    kind = spec["kind"]
    if kind == "constant":
        return ScalarField(grid, np.full(grid.shape, spec["value"]))
    if kind == "ball_indicator":
        mask = ball_mask(grid, _point(spec["center"], grid), spec["radius"]).mask
        return ScalarField(grid, np.where(mask, spec["value"], 0.0))
    if kind == "bumps":
        return bump_field(grid, [BumpParams(tuple(b["center"]), b["width"], b["amplitude"]) for b in spec["bumps"]])
    if kind == "random_bumps":
        rng = np.random.default_rng(seed)
        params = draw_bump_params(rng, grid.N, max_bumps=spec["max_bumps"], center_halfwidth=spec["center_halfwidth"])
        return bump_field(grid, params)
    fld = load_field(spec["path"])
    if fld.grid != grid:
        raise ConfigError("field file grid does not match the configured grid")
    return fld


def cmd_check(cfg: dict, out: _OutputDir) -> int:
    report = admissibility_report(cfg["exponents"])
    out.write_json("admissibility.json", report)
    return 0 if report.admissible else 1


def cmd_solve(cfg: dict, out: _OutputDir) -> int:
    grid = Grid(**cfg["grid"])
    dom = cfg["domain"]
    center = _point(None if dom is None else dom["center"], grid)
    if cfg["radial_oracle"] is not None:
        _oracle_cells(grid, cfg["radial_oracle"]["R"], center)  # a bad R fails before anything is written
    # the problem is built in the call, so the solver holds its only reference and frees f once it is
    # on the solver's crop (peak memory)
    u, rep = solve(DirichletProblem(
        grid,
        cfg["p"],
        _field_from_spec(grid, cfg["field"], out.seed),
        eps_reg=cfg["eps_reg"],
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        domain=None if dom is None else ball_mask(grid, center, dom["ball_radius"]),
    ))
    out.write("solution.fld", partial(save_field, u))
    report = asdict(rep)
    if cfg["radial_oracle"] is not None:
        report["radial_linf_error"] = _radial_linf_error(u, cfg["p"], cfg["radial_oracle"]["R"], center)
    out.write_json("solve_report.json", report)
    return 0 if rep.converged else 1


def _oracle_cells(grid: Grid, R: float, center: tuple[float, ...]) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray]:
    """The radial oracle's cells: the ``ball_box`` of radius 0.8 R, |x - center|^2 on it and the mask
    of the cells within 0.8 R.

    Raises ConfigError if R <= 0 or no cell centre lies within 0.8 R."""
    rad2 = (0.8 * R) * (0.8 * R)
    box, d2 = ball_box(grid, center, rad2)
    if not (R > 0.0 and (d2 < rad2).any()):
        raise ConfigError(f"radial_oracle.R must be positive with a cell centre within 0.8 R, got {R!r}")
    return box, d2, d2 < rad2


def _radial_linf_error(u: ScalarField, p: float, R: float, center: tuple[float, ...]) -> float:
    """max |u - exact_radial| / max |exact_radial| over the cells within 0.8 R of ``center``, read on their box."""
    box, d2, inner = _oracle_cells(u.grid, R, center)
    ex = exact_radial(p, u.grid.N, R, np.minimum(np.sqrt(d2), R))
    return float(np.max(np.abs(u.values[box] - ex)[inner])) / float(np.max(np.abs(ex[inner])))


def cmd_potential(cfg: dict, out: _OutputDir) -> int:
    grid = Grid(**cfg["grid"])
    f = _field_from_spec(grid, cfg["field"], out.seed)
    R = cfg["R"]
    quad = PotentialQuadrature(cfg["num_nodes"], cfg["rho_min"])
    x = _point(cfg["x"], grid)
    # everything is computed before the first write, so a bad Hölder exponent (exit 2) and a
    # field whose powers of |f| overflow float64 (exit 1) leave nothing behind
    try:
        with np.errstate(over="raise"):
            bounds = {str(r): potential_holder_bound(f, r, grid.N, quad) for r in cfg["holder_r"]}
            value = potential_P(f, x, R, quad)
            profile = potential_profile(f, R, quad)
    except FloatingPointError as exc:
        raise AnalyticFailure(f"the field's powers leave float64's range: {exc}") from exc
    out.write("potential_profile.csv", partial(export_csv, profile))
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
    a = make_weight(cfg["weight"]["kind"], cfg["weight"]["amplitude"], Grid(**cfg["grid"]))
    coeffs = {f"coeff_{key}": value for key, value in cfg["coeffs"].items()}
    return ReactionSpec(exponents=cfg["exponents"], weight_a1=a, weight_a2=a, **coeffs)


def cmd_scheme(cfg: dict, out: _OutputDir) -> int:
    picard = {key: value for key, value in cfg["picard"].items() if value is not None}
    states, report = run_scheme(_spec_from(cfg), cfg["n_list"], cfg["rho"], **picard)
    for state in states:
        for name, fld in (("u", state.u), ("v", state.v)):
            out.write(f"level_{state.n:04d}_{name}.fld", partial(save_field, fld))
    out.write("config.json", lambda path: path.write_text(out.config_text))
    out.write_json("states.json", [s.summary() for s in states])
    out.write_json("scheme_report.json", report)
    return 0 if all(report.converged_n) else 1


def _load_scheme_output(scheme_dir: Path) -> tuple[ReactionSpec, list[SystemState]]:
    """The spec and levels of a scheme directory, read through the scheme and level schemas."""
    cfg_path, states_path = scheme_dir / "config.json", scheme_dir / "states.json"
    spec = _spec_from(_check(json.loads(cfg_path.read_text()), _SCHEMAS["scheme"], str(cfg_path)))
    states = []
    for summ in _check(json.loads(states_path.read_text()), [_LEVEL], str(states_path)):
        del summ["sup_u"], summ["sup_v"]
        work = SolverWork(**{name: summ.pop(name) for name in _WORK})
        u, v = (load_field(scheme_dir / f"level_{summ['n']:04d}_{name}.fld") for name in "uv")
        states.append(SystemState(u=u, v=v, work=work, **summ))
    return spec, states


def cmd_verify(cfg: dict, out: _OutputDir) -> int:
    spec, states = _load_scheme_output(Path(cfg["scheme_out"]))
    unconverged = [state.n for state in states if not state.converged]
    if unconverged:
        raise AnalyticFailure(f"scheme levels n = {unconverged} did not converge; verify uses converged levels only")
    c = spec.exponents
    t, s, R = cfg["t"], cfg["s"], cfg["R"]
    h_cells_list = [tuple(cells) for cells in cfg["h_cells"]]
    r = derive(c).r_window.midpoint() if cfg["r"] is None else cfg["r"]

    chain_reports = []
    for state in states:
        rhs_f, _ = frozen_reactions(spec, state.u, state.v, state.eps)
        chain_reports += [(state.n, rep) for rep in comptest_chain(state.u, rhs_f, c.p, r, h_cells_list, t, s, R)]
    table = rfk_decay([st.u for st in states], c.p, t, h_cells_list)

    chain_ok = all(rep.verdict for _, rep in chain_reports)
    sups = [row.sup_over_n for row in table.rows]
    decay_ok = all(b <= 1.05 * a for a, b in zip(sups, sups[1:]))

    decay_header = ["h_cells", "h_mag", "sup_over_n"] + [f"n_index_{i}" for i in range(len(states))]
    decay_rows = [[" ".join(map(str, row.h_cells)), repr(row.h_mag), repr(row.sup_over_n), *map(repr, row.per_n)]
                  for row in table.rows]
    out.write("decay_table.csv", lambda path: _write_csv(path, decay_header, decay_rows))
    chain_header = ["n", "h_cells", "h_mag", "lhs", "rhs", "ratio", "verdict"]
    chain_rows = [[n, " ".join(map(str, rep.context["h_cells"])), repr(rep.context["h_mag"]), repr(rep.lhs),
                   repr(rep.rhs), repr(rep.constant_estimate), rep.verdict] for n, rep in chain_reports]
    out.write("chain_reports.csv", lambda path: _write_csv(path, chain_header, chain_rows))
    out.write_json("decay_table.json", table)
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
            "chain": [dict(n=n, **asdict(rep)) for n, rep in chain_reports],
        },
    )
    return 0 if chain_ok and decay_ok else 1


def cmd_report(out_dir: Path) -> int:
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"no manifest.json in {out_dir}", file=sys.stderr)
        return 1
    manifest = _check(json.loads(manifest_path.read_text()), _MANIFEST, str(manifest_path))
    bad = []
    for name, digest in manifest["files"].items():
        path = out_dir / name
        if not os.path.lexists(path):
            bad.append(f"{name}: missing")
        elif path.is_symlink() or not path.is_file():  # a link would certify a file outside the directory
            bad.append(f"{name}: not a regular file")
        elif _sha256(path) != digest:
            bad.append(f"{name}: hash mismatch")
    # an entry the manifest does not list, of whatever kind (a link, dangling or not, or a directory),
    # belongs to another run, which this one does not certify
    listed = {*manifest["files"], "manifest.json"}
    bad += [f"{p.name}: not in manifest" for p in sorted(out_dir.iterdir()) if p.name not in listed]
    summary = {
        "command": manifest["command"],
        "files_listed": len(manifest["files"]),
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

    commands = {"check": cmd_check, "solve": cmd_solve, "potential": cmd_potential, "scheme": cmd_scheme,
                "verify": cmd_verify}
    try:
        if args.command == "report":
            return cmd_report(Path(args.out))
        if args.config is None:
            raise ConfigError("--config is required for this command")
        config_text = Path(args.config).read_text()
        cfg = _check(json.loads(config_text), _SCHEMAS[args.command], "")
        out = _OutputDir(Path(args.out), args.command, args.seed, config_text)
        code = commands[args.command](cfg, out)
        out.finish()
        return code
    except (SolverDivergenceError, AnalyticFailure) as exc:
        print(f"analytic failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ValueError covers JSONDecodeError and ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
