"""Which program functions the traced run wraps, and the per-layer metrics.

Each ``plapbench.<module>`` is a layer.  Counts come from what the wrapped
functions return (``SolveReport``, ``SystemState``) or leave behind (files,
manifests), never from private functions.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from pathlib import Path
from types import ModuleType
from typing import Callable

from tracer import Extractor, Span, outermost, self_times

WRAPPED = {
    "plap_solver": ("solve", "weak_residual"),
    "scheme": ("picard_solve_level", "eval_f", "eval_g", "frozen_reactions"),
    "field": ("gradient", "w1p_norm", "lp_norm", "save_field", "load_field", "export_csv"),
    "potential": ("potential_sup", "potential_profile", "potential_P", "potential_holder_bound"),
    "estimates": ("comptest_chain", "rfk_decay"),
    "hypotheses": ("check_H1a", "check_H2", "admissibility_report", "derive", "config_from_dict"),
    "synth": ("bump_field",),
    "cli": ("main",),
}

HYPOTHESES = {f"hypotheses.{fn}" for fn in WRAPPED["hypotheses"]}
REACTIONS = {"scheme.eval_f", "scheme.eval_g", "scheme.frozen_reactions"}


def _path_size(param: str) -> Callable[[inspect.BoundArguments, object], dict]:
    return lambda bound, result: {"bytes": os.path.getsize(bound.arguments[param])}


def _solve_counts(bound: inspect.BoundArguments, result) -> dict:
    rep = result[1]
    return {"outer": rep.iterations, "cg": rep.cg_iterations, "converged": rep.converged}


def _profile_work(bound: inspect.BoundArguments, result) -> dict:
    grid = bound.arguments["f"].grid
    return {"cell_nodes": grid.cells_per_axis**grid.N * bound.arguments["quad"].num_nodes}


def _manifest_bytes(bound: inspect.BoundArguments, result) -> dict:
    argv = list(bound.arguments["argv"] or [])
    if not argv or argv[0] == "report" or "--out" not in argv:
        return {"bytes": 0}  # ``report`` reads a manifest, it writes none
    out = Path(argv[argv.index("--out") + 1])
    manifest = out / "manifest.json"
    if not manifest.exists():
        return {"bytes": 0}
    files = json.loads(manifest.read_text())["files"]
    return {"bytes": sum(os.path.getsize(out / name) for name in files)}


_EXTRACT = {
    "plap_solver.solve": _solve_counts,
    "scheme.picard_solve_level": lambda bound, state: {"picard": state.picard_iters},
    "field.save_field": _path_size("path"),
    "field.load_field": _path_size("path"),
    "field.export_csv": _path_size("path"),
    "potential.potential_profile": _profile_work,
    "cli.main": _manifest_bytes,
}


def _extractor(fn: Callable, extract) -> Extractor:
    signature = inspect.signature(fn)

    def run(args: tuple, kwargs: dict, result) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return extract(bound, result)

    return run


def program_modules() -> list[ModuleType]:
    """The package and every loaded ``plapbench.*`` module."""
    return [mod for name, mod in sorted(sys.modules.items()) if name == "plapbench" or name.startswith("plapbench.")]


def targets() -> dict[str, tuple[Callable, Extractor | None]]:
    """Span name -> (original function, extractor) for every wrapped function."""
    out = {}
    for layer, names in WRAPPED.items():
        module = importlib.import_module(f"plapbench.{layer}")
        for fn_name in names:
            fn = getattr(module, fn_name)
            span = f"{layer}.{fn_name}"
            extract = _EXTRACT.get(span)
            out[span] = (fn, None if extract is None else _extractor(fn, extract))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], pass_start: int, timed_s: float, untraced_s: float) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the spans of one traced set-up and pass.

    ``spans[pass_start:]`` belong to the pass, the rest to the set-up.
    ``timed_s`` is the traced pass's timed wall time and ``untraced_s`` the
    same for the untraced pass run just before it.
    """
    selfs = self_times(spans)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def incl(*names: str) -> float:
        return sum(s.duration for s in outermost(spans, set(names)))

    def self_s(name: str) -> float:
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def total(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    solves = calls("plap_solver.solve")
    outer = total("plap_solver.solve", "outer")
    picard = total("scheme.picard_solve_level", "picard")
    profile_s = incl("potential.potential_profile")
    top_level_s = sum(s.duration for s in spans[pass_start:] if s.parent is None)
    m = {
        "plap_solver.solve.calls": solves,
        "plap_solver.solve.self_s": self_s("plap_solver.solve"),
        "plap_solver.solve.share": _ratio(incl("plap_solver.solve"), timed_s),
        "plap_solver.outer_steps": outer,
        "plap_solver.cg_iterations": total("plap_solver.solve", "cg"),
        "plap_solver.cg_per_outer": _ratio(total("plap_solver.solve", "cg"), outer),
        "plap_solver.converged_ratio": _ratio(total("plap_solver.solve", "converged"), solves),
        "plap_solver.weak_residual.s": incl("plap_solver.weak_residual"),
        "scheme.level.calls": calls("scheme.picard_solve_level"),
        "scheme.level.self_s": self_s("scheme.picard_solve_level"),
        "scheme.picard_steps": picard,
        "scheme.solves_per_picard_step": _ratio(solves, picard),
        "scheme.reactions.s": incl(*REACTIONS),
        "field.gradient.calls": calls("field.gradient"),
        "field.gradient.s": incl("field.gradient"),
        "field.w1p_norm.calls": calls("field.w1p_norm"),
        "field.w1p_norm.s": incl("field.w1p_norm"),
        "field.lp_norm.s": incl("field.lp_norm"),
        "potential.sup.calls": calls("potential.potential_sup"),
        "potential.sup.s": incl("potential.potential_sup"),
        "potential.profile.calls": calls("potential.potential_profile"),
        "potential.profile.s": profile_s,
        "potential.P.s": incl("potential.potential_P"),
        "potential.holder_bound.s": incl("potential.potential_holder_bound"),
        "potential.cell_nodes_per_s": _ratio(total("potential.potential_profile", "cell_nodes"), profile_s),
        "estimates.comptest_chain.calls": calls("estimates.comptest_chain"),
        "estimates.comptest_chain.s": incl("estimates.comptest_chain"),
        "estimates.rfk_decay.s": incl("estimates.rfk_decay"),
        "hypotheses.calls": sum(1 for s in spans if s.name in HYPOTHESES),
        "hypotheses.s": incl(*HYPOTHESES),
        "synth.bump_field.calls": calls("synth.bump_field"),
        "synth.bump_field.s": incl("synth.bump_field"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_written": total("cli.main", "bytes"),
        "trace.coverage": _ratio(top_level_s, timed_s),
        "trace.overhead_s": timed_s - untraced_s,
    }
    for io in ("save_field", "load_field", "export_csv"):
        m[f"field.{io}.s"] = incl(f"field.{io}")
        m[f"field.{io}.bytes"] = total(f"field.{io}", "bytes")
    return m
