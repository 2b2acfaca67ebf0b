"""Tests of the benchmark's tracer and result checks.

    python3 -m pytest perfbench
"""

import json
import math
import types
from pathlib import Path

import pytest

import layers
from one_pass import check_report
from run import ALL_EXPERIMENTS, score
from tracer import Span, Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, dt):
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock, cpu_clock=clock)


def test_self_time_subtracts_direct_children_only(tracer, clock):
    with tracer.span("experiments.run"):
        clock.spend(1)
        with tracer.span("pde.compare"):
            clock.spend(1)
            with tracer.span("paths.terminals"):
                clock.spend(4)
            clock.spend(0.5)
        with tracer.span("model.x"):
            clock.spend(2)
        clock.spend(1.5)
    outer, compare, terminals, model = tracer.spans
    assert [sp.parent for sp in tracer.spans] == [None, 0, 1, 0]
    selfs = self_times(tracer.spans)
    assert outer.duration == 10
    assert selfs[outer.id] == pytest.approx(10 - 5.5 - 2)
    assert selfs[compare.id] == pytest.approx(1.5)
    assert selfs[terminals.id] == pytest.approx(4)
    assert selfs[model.id] == pytest.approx(2)
    # self times of a tree add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(outer.duration)


def _chunks(n, cost, clock):
    for i in range(n):
        clock.spend(cost)
        yield i


def test_generator_spans_time_each_next(tracer, clock):
    gen_fn = tracer.wrap_generator(lambda n, cost: _chunks(n, cost, clock),
                                   "paths.chunks",
                                   shape=lambda a: {"n": a["n"]},
                                   per_item=lambda item: {"item": item})
    with tracer.span("experiments.run"):
        for _ in gen_fn(3, 2.0):
            with tracer.span("girsanov.log_weights"):
                clock.spend(1.0)
    chunks = [sp for sp in tracer.spans if sp.name == "paths.chunks"]
    weights = [sp for sp in tracer.spans if sp.name == "girsanov.log_weights"]
    # one span per item plus the final next() that stops the generator
    assert [sp.duration for sp in chunks] == [2.0, 2.0, 2.0, 0.0]
    assert [sp.attrs.get("item") for sp in chunks] == [0, 1, 2, None]
    assert all(sp.attrs["n"] == 3 for sp in chunks)
    # the consumer's work is a sibling, not a child of the chunk spans
    assert all(sp.parent == 0 for sp in chunks + weights)
    assert sum(sp.duration for sp in weights) == 3.0
    assert self_times(tracer.spans)[0] == 0.0


def test_plain_wrapper_on_a_generator_records_nothing(tracer, clock):
    naive = tracer.wrap(lambda n: _chunks(n, 2.0, clock), "paths.chunks")
    items = list(naive(3))
    assert items == [0, 1, 2] and clock.now == 6.0
    (span,) = tracer.spans
    assert span.duration == 0.0


def test_generator_closed_early_closes_the_inner_generator(tracer, clock):
    closed = []

    def inner():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracer.wrap_generator(inner, "paths.chunks")()
    assert next(gen) == 1
    gen.close()
    assert closed == [True]


def test_install_patches_the_lookup_and_uninstall_restores(tracer):
    mod = types.SimpleNamespace(f=lambda x: x + 1)
    original = mod.f
    tracer.install(mod, "f", tracer.wrap(mod.f, "model.f"))
    assert mod.f(1) == 2 and len(tracer.spans) == 1
    tracer.uninstall()
    assert mod.f is original


def _span(i, name, start, end, parent=None, **attrs):
    return Span(id=i, name=name, parent=parent, start=start, end=end,
                cpu=end - start, attrs=attrs)


def test_layer_metrics_counts_and_ratios():
    spans = [
        _span(0, "experiments.run", 0, 10, experiment="pde-cross-check"),
        _span(1, "pde.compare_mc_pde", 0, 6, 0),
        _span(2, "pde.solve", 0, 1, 1, n_x=801, n_t=512),
        _span(3, "pde.solve", 1, 3, 1, n_x=1601, n_t=1024),
        _span(4, "paths.terminals", 3, 5, 1, n_paths=4000, n_steps=2048,
              chunk=2048, threads=1),
        _span(5, "pde.solve", 6, 7, 0, n_x=801, n_t=512),
        _span(6, "pde.solve", 7, 9, 0, n_x=1601, n_t=1024),
    ]
    m = layers.layer_metrics(spans, pass_wall=10.0, untraced_wall=9.5,
                             experiment_names=ALL_EXPERIMENTS)
    assert m["pde.solves"] == 4
    assert m["pde.distinct_grids"] == 2
    assert m["pde.useful_solve_frac"] == 0.5
    assert m["pde.self_s"] == pytest.approx(1 + 1 + 2 + 1 + 2)
    assert m["paths.path_steps"] == 4000 * 2048
    assert m["paths.ns_per_path_step"] == pytest.approx(2e9 / (4000 * 2048))
    assert m["experiments.self_s"] == pytest.approx(1.0)
    assert m["experiments.pde-cross-check.wall_s"] == 10
    assert m["experiments.cir-baseline.wall_s"] == 0.0
    assert m["girsanov.ns_per_path_step"] == 0.0
    assert m["trace.overhead_s"] == pytest.approx(0.5)
    assert m["trace.coverage"] == pytest.approx(0.9)


def test_retained_mb_from_kept_chunks_including_the_final_next():
    kept = dict(n_steps=1024, chunk=10_000, keep_values=False, keep_gauss=True)
    spans = [
        _span(0, "paths.chunks", 0, 1, n_paths=10_000, **kept),
        _span(1, "paths.chunks", 1, 2, n_paths=5_000, **kept),
        _span(2, "paths.chunks", 2, 2, **kept),   # next() that ended it
    ]
    m = layers.layer_metrics(spans, 2.0, 2.0, ALL_EXPERIMENTS)
    assert m["paths.retained_mb"] == 8 * 10_000 * 1024 / 2 ** 20
    assert m["paths.path_steps"] == 15_000 * 1024


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    names = list(layers.layer_metrics([], 1.0, 1.0, ALL_EXPERIMENTS))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == layers.unit_of(m["name"]) for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "cpu_s", "peak_rss_mb", "setup_s"]


def _write_report(tmp_path, criteria, extra=None):
    report = {"criteria": [{"name": n, "passed": ok} for n, ok in criteria],
              "runtime_seconds": 1.0, **(extra or {})}
    (tmp_path / "report.json").write_text(json.dumps(report))


def test_check_report_faults(tmp_path):
    _write_report(tmp_path, [("a", True), ("b", False)])
    rec = check_report("x", 1, tmp_path, 2)
    assert rec["fault"] is None and rec["failed"] == ["b"]
    assert check_report("x", 0, tmp_path, 2)["fault"]      # exit code disagrees
    assert check_report("x", 1, tmp_path, 3)["fault"]      # criteria count
    assert check_report("x", 3, tmp_path, 2)["fault"]      # runtime failure
    assert check_report("x", "raised", tmp_path, 2)["fault"]
    _write_report(tmp_path, [("a", True)], {"metric": math.nan})
    assert "non-finite" in check_report("x", 0, tmp_path, 1)["fault"]


def test_digest_ignores_runtime_only(tmp_path):
    _write_report(tmp_path, [("a", True)])
    first = check_report("x", 0, tmp_path, 1)["digest"]
    _write_report(tmp_path, [("a", True)], {"runtime_seconds": 2.0})
    assert check_report("x", 0, tmp_path, 1)["digest"] == first
    _write_report(tmp_path, [("a", True)], {"metric": 1.0})
    assert check_report("x", 0, tmp_path, 1)["digest"] != first


def _pass(*recs):
    return {"reports": [{"experiment": e, "failed": f, "fault": fault}
                        for e, f, fault in recs]}


def test_score_counts_known_failures_but_flags_only_unknown_ones():
    known = "ratio error decreases under dt refinement"
    other = "mean relative residual of the product identity <= 0.10"
    p = _pass(("localtime-ratios", [known], None),
              ("relloc-identity", [], None), ("stationary-skew", [], None),
              ("regime-check", [], None), ("pde-cross-check", [], None))
    assert score("narrow-oracle", [p]) == (15, 1, [])
    p["reports"][1]["failed"] = [other]
    attempted, failed, problems = score("narrow-oracle", [p])
    assert (attempted, failed) == (15, 2) and len(problems) == 1
    crashed = _pass(("girsanov-consistency", [], "exit code 3"))
    attempted, failed, problems = score("reweight", [crashed])
    assert (attempted, failed) == (2, 2) and problems


def _cir_metrics(estimate):
    return {"metrics": {"mean_estimate": {"value": estimate, "std_error": 0.01},
                        "target_mean": {"value": 2.0}}}


def test_sanity_checks_a_listed_criterion_wider_than_its_gate(tmp_path):
    gate = "mean within 3 SE of the first-moment ODE value"
    # 4 SE off: the listed 3-SE gate fails, the 6-SE check holds
    _write_report(tmp_path, [(gate, False)], _cir_metrics(2.04))
    rec = check_report("cir-baseline", 1, tmp_path, 1)
    assert rec["fault"] is None and rec["failed"] == [gate]
    assert score("wide-terminals", [_pass(("cir-baseline", [gate], None))])[2] == []
    # 7 SE off is a defect, not noise
    _write_report(tmp_path, [(gate, False)], _cir_metrics(2.07))
    assert "sanity" in check_report("cir-baseline", 1, tmp_path, 1)["fault"]
    _write_report(tmp_path, [(gate, True)], {"metrics": {}})
    assert "missing" in check_report("cir-baseline", 0, tmp_path, 1)["fault"]
