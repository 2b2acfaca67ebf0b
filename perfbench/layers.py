"""Where the traced pass records spans, and the per-layer metrics it reports.

Layers are the package's modules.  Each hook names the module whose global
the caller looks up, so a call is traced once, at the boundary where it
crosses into the layer.  Calls a layer makes into its own module are inside
its span.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from tracer import Span, Tracer, self_times

MB = float(1 << 20)


def _grid_steps(a):
    return {"n_paths": a["n_paths"], "n_steps": a["grid"].n_steps}


def _terminals(a):
    return {**_grid_steps(a), "chunk": a["chunk_size"], "threads": a["threads"]}


def _chunks(a):
    # n_paths of each next() comes from the batch it yields
    return {"n_steps": a["grid"].n_steps, "chunk": a["chunk_size"],
            "keep_values": a["keep_values"], "keep_gauss": a["keep_gauss"]}


def _one_path(key):
    return lambda a: {"n_paths": 1, "n_steps": a[key].grid.n_steps}


def _pde_grid(a):
    return {"n_x": a["grid"].n_x, "n_t": a["grid"].n_t}


def _samples(a):
    return {"samples": len(a["samples"])}


# (module, attribute, span name, shape of the call's arguments)
HOOKS = [
    ("skewdiff.experiments", "simulate_terminals", "paths.terminals", _terminals),
    ("skewdiff.experiments", "simulate_paths", "paths.retained", _grid_steps),
    ("skewdiff.experiments", "simulate_long_run_squared", "paths.long_run",
     lambda a: {"n_paths": 1, "n_steps": a["n_steps"]}),
    ("skewdiff.experiments", "square_path", "paths.square", None),
    ("skewdiff.experiments", "occupation_estimate", "localtime.occupation",
     _one_path("path")),
    ("skewdiff.experiments", "check_relloc", "localtime.relloc",
     _one_path("y_path")),
    ("skewdiff.experiments", "girsanov_log_weights", "girsanov.log_weights",
     lambda a: {"n_paths": a["gauss"].shape[0],
                "n_steps": a["gauss"].shape[1]}),
    ("skewdiff.experiments", "cir_moments", "analytics.cir_moments", None),
    ("skewdiff.experiments", "besq_terminal_cdf", "analytics.besq_terminal_cdf",
     None),
    ("skewdiff.experiments", "ks_test", "analytics.ks_test", _samples),
    ("skewdiff.experiments", "stationary_test", "analytics.stationary_test",
     _samples),
    ("skewdiff.experiments", "validate_params", "model.validate_params", None),
    ("skewdiff.experiments", "builtin_curve", "model.builtin_curve", None),
    ("skewdiff.experiments", "check_monotonicity", "model.check_monotonicity",
     None),
    ("skewdiff.experiments", "stationary_density_constant_barrier",
     "model.stationary_density", None),
    # _random_curve imports it at call time from skewdiff.model
    ("skewdiff.model", "decompose_curve", "model.decompose_curve", None),
    ("skewdiff.experiments", "compare_mc_pde", "pde.compare_mc_pde", None),
    ("skewdiff.experiments", "solve_backward", "pde.solve", _pde_grid),
    ("skewdiff.pde", "solve_backward", "pde.solve", _pde_grid),
    ("skewdiff.pde", "simulate_terminals", "paths.terminals", _terminals),
]

# simulate_chunks is a generator: its work happens in next(), not the call
GENERATOR_HOOKS = [
    ("skewdiff.experiments", "simulate_chunks", "paths.chunks", _chunks,
     lambda batch: {"n_paths": int(batch.terminals.size)}),
]

EXPERIMENT_SPAN = "experiments.run"


def install(tracer: Tracer) -> None:
    for mod_name, attr, name, shape in HOOKS:
        mod = importlib.import_module(mod_name)
        tracer.install(mod, attr, tracer.wrap(getattr(mod, attr), name, shape))
    for mod_name, attr, name, shape, per_item in GENERATOR_HOOKS:
        mod = importlib.import_module(mod_name)
        tracer.install(mod, attr, tracer.wrap_generator(
            getattr(mod, attr), name, shape, per_item))


def unit_of(metric: str) -> str:
    if "ns_per" in metric:
        return "ns"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_frac", "coverage", "cpu_per_wall")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def _path_steps(sp: Span) -> int:
    return sp.attrs.get("n_paths", 0) * sp.attrs.get("n_steps", 0)


def _retained_bytes(sp: Span) -> int:
    """Bytes of the values/draws arrays a call keeps, from its arguments."""
    m, n = sp.attrs.get("n_paths", 0), sp.attrs["n_steps"]
    if sp.name == "paths.retained":
        return 8 * m * ((n + 1) + n)
    return 8 * m * ((n + 1) * sp.attrs["keep_values"] + n * sp.attrs["keep_gauss"])


def layer_metrics(spans: list[Span], pass_wall: float, untraced_wall: float,
                  experiment_names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def self_of(names) -> float:
        return sum((selfs[sp.id] for n in names for sp in by_name[n]), 0.0)

    def layer_self(layer) -> float:
        return sum((selfs[sp.id] for sp in spans if sp.layer == layer), 0.0)

    def steps(names) -> int:
        return sum(_path_steps(sp) for n in names for sp in by_name[n])

    engine = ["paths.terminals", "paths.chunks", "paths.retained",
              "paths.long_run"]
    paths_self = layer_self("paths")
    terminals = by_name["paths.terminals"]
    retained = by_name["paths.retained"] + [
        sp for sp in by_name["paths.chunks"]
        if sp.attrs["keep_values"] or sp.attrs["keep_gauss"]]
    localtime = by_name["localtime.occupation"] + by_name["localtime.relloc"]
    solves = by_name["pde.solve"]
    grids = {(sp.attrs["n_x"], sp.attrs["n_t"]) for sp in solves}
    analytics = by_name["analytics.ks_test"] + by_name["analytics.stationary_test"]
    experiments = by_name[EXPERIMENT_SPAN]
    computing = sum(selfs[sp.id] for sp in spans if sp.name != EXPERIMENT_SPAN)

    out = {
        "paths.self_s": paths_self,
        "paths.ns_per_path_step": 1e9 * _ratio(paths_self, steps(engine)),
        "paths.path_steps": steps(engine),
        "paths.terminals.ns_per_path_step":
            1e9 * _ratio(self_of(["paths.terminals"]), steps(["paths.terminals"])),
        "paths.chunks.ns_per_path_step":
            1e9 * _ratio(self_of(["paths.chunks"]), steps(["paths.chunks"])),
        "paths.retained.ns_per_path_step":
            1e9 * _ratio(self_of(["paths.retained"]), steps(["paths.retained"])),
        "paths.long_run.ns_per_step":
            1e9 * _ratio(self_of(["paths.long_run"]), steps(["paths.long_run"])),
        "paths.cpu_per_wall": _ratio(sum(sp.cpu for sp in terminals),
                                     sum(sp.duration for sp in terminals)),
        "paths.retained_mb": max((_retained_bytes(sp) for sp in retained),
                                 default=0) / MB,
        "localtime.self_s": layer_self("localtime"),
        "localtime.calls": len(localtime),
        "localtime.ns_per_path_step": 1e9 * _ratio(
            layer_self("localtime"), sum(_path_steps(sp) for sp in localtime)),
        "girsanov.self_s": layer_self("girsanov"),
        "girsanov.paths_weighted":
            sum(sp.attrs["n_paths"] for sp in by_name["girsanov.log_weights"]),
        "girsanov.ns_per_path_step": 1e9 * _ratio(
            layer_self("girsanov"), steps(["girsanov.log_weights"])),
        "pde.self_s": layer_self("pde"),
        "pde.solves": len(solves),
        "pde.distinct_grids": len(grids),
        "pde.useful_solve_frac": _ratio(len(grids), len(solves)),
        "pde.ns_per_cell_step": 1e9 * _ratio(
            self_of(["pde.solve"]),
            sum(sp.attrs["n_x"] * sp.attrs["n_t"] for sp in solves)),
        "analytics.self_s": layer_self("analytics"),
        "analytics.ks_test.self_s": self_of(["analytics.ks_test"]),
        "analytics.stationary_test.self_s": self_of(["analytics.stationary_test"]),
        "analytics.samples_tested": sum(sp.attrs["samples"] for sp in analytics),
        "model.self_s": layer_self("model"),
        "model.calls": sum(1 for sp in spans if sp.layer == "model"),
        "experiments.self_s": sum(selfs[sp.id] for sp in experiments),
    }
    walls = {sp.attrs["experiment"]: sp.duration for sp in experiments}
    for name in experiment_names:
        out[f"experiments.{name}.wall_s"] = walls.get(name, 0.0)
    out["trace.overhead_s"] = pass_wall - untraced_wall
    out["trace.coverage"] = _ratio(computing, pass_wall)
    return out
