"""skewdiff benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/``.  Each pass runs in a fresh process (one_pass.py) and drives every
experiment of the workload through ``skewdiff run``, one after another
(a closed loop with one caller).  Passes run back to back until ``--seconds``
have elapsed, at least one.  ``--trace 1`` adds one traced pass and prints
the per-layer metrics instead of the end-to-end ones.  The last line of
stdout is the result as JSON; details of the run, its spans and the machine
fingerprint go to ``perfbench/out/<workload>-s<seed>/``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import layer_metrics, unit_of
from tracer import Span
from workloads import KNOWN_FAILURES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
# the whole run, children included, must end within 180 s
DEADLINE_S = 170.0
ALL_EXPERIMENTS = [name for wl in WORKLOADS.values()
                   for name, _, _ in wl.experiments]


def fingerprint() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def src_digest() -> str:
    """Digest of the package source, so report digests are compared only
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.start = time.monotonic()
        self.children = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, *flags: str) -> dict:
        """Run one_pass.py in a fresh process and return its result."""
        self.children += 1
        tag = f"{self.children:02d}"
        result = self.run_dir / f"result-{tag}.json"
        cmd = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(self.run_dir / f"pass-{tag}"),
               "--result", str(result), *flags]
        began = time.monotonic()
        # the command's own [PASS]/[FAIL] lines go to stderr, so the last
        # line of stdout stays the result
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              stdout=sys.stderr, cwd=ROOT,
                              timeout=max(self.remaining(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"pass process exited {proc.returncode}")
        out = json.loads(result.read_text())
        out["process_s"] = time.monotonic() - began
        return out


def score(workload: str, passes: list[dict]):
    """(attempted, failed, problems) over all passes of one run."""
    n_crit = {name: n for name, _, n in WORKLOADS[workload].experiments}
    allowed = KNOWN_FAILURES.get(workload, set())
    attempted = failed = 0
    problems = []
    for p in passes:
        for rec in p["reports"]:
            name = rec["experiment"]
            attempted += n_crit[name]
            if rec["fault"]:
                failed += n_crit[name]
                problems.append(f"{name}: {rec['fault']}")
                continue
            failed += len(rec["failed"])
            problems += [f"{name}: unexpected failure of {c!r}"
                         for c in rec["failed"] if (name, c) not in allowed]
    return attempted, failed, problems


def check_digests(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Reports (minus runtime_seconds) must be byte-identical across every
    pass of this run and every earlier run of the same code and seed in
    this checkout."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    known = store.setdefault(src_digest(), {}).setdefault(
        f"{workload}/{seed}", {})
    problems = []
    for p in passes:
        for rec in p["reports"]:
            if rec["digest"] is None:
                continue
            first = known.setdefault(rec["experiment"], rec["digest"])
            if rec["digest"] != first:
                problems.append(f"{rec['experiment']}: report differs from an "
                                f"earlier run at seed {seed}")
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return problems


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running pass process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "skewdiff" / "cli.py").is_file():
        print(f"no skewdiff source under {ROOT / 'src'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    run_dir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    machine = fingerprint()
    print("machine " + json.dumps(machine))
    runner = Runner(args.workload, args.seed, run_dir)

    try:
        setups = [runner.child("--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        passes = []
        measuring = time.monotonic()
        while not passes or time.monotonic() - measuring < args.seconds:
            # leave room for one more pass, and the traced one
            if passes and runner.remaining() < passes[-1]["process_s"] * (
                    2.5 if args.trace else 1.25):
                break
            passes.append(runner.child())
        traced = runner.child("--trace") if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    checked = passes + ([traced] if traced else [])
    for i, p in enumerate(checked):
        print(f"pass {i}{' (traced)' if p is traced else ''}: "
              f"wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
              f"peak rss {p['peak_rss_mb']:.1f} MB, setup {p['setup_s']:.3f} s, "
              f"load {p['loadavg_start']:.2f} -> {p['loadavg_end']:.2f}")
    attempted, failed, problems = score(args.workload, checked)
    problems += check_digests(args.workload, args.seed, checked)
    for line in problems:
        print(f"problem: {line}")
    print(f"criteria_fail_frac {failed}/{attempted} = {failed / attempted:.4f}")

    setup_all = setups + [p["setup_s"] for p in passes]
    if traced is None:
        metrics = {
            "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": _metric(statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": _metric(
                statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "setup_s": _metric(statistics.median(setup_all), "s"),
        }
    else:
        raw = traced.pop("spans")
        (run_dir / "trace.json").write_text(json.dumps(raw))
        spans = [Span(**sp) for sp in raw]
        layers = layer_metrics(spans, traced["wall_s"],
                               statistics.median(p["wall_s"] for p in passes),
                               ALL_EXPERIMENTS)
        metrics = {k: _metric(v, unit_of(k)) for k, v in layers.items()}

    (run_dir / "run.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": machine,
        "setup_probes_s": setups, "passes": checked, "problems": problems,
        "metrics": metrics}, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
