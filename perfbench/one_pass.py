"""One benchmark pass, in a fresh process: set up, then run every experiment
of a workload through the ``skewdiff run`` command in-process.

Started by run.py, which passes the CLOCK_MONOTONIC time it spawned this
process, so ``setup_s`` covers interpreter start, importing ``skewdiff.cli``
(numpy, scipy, jsonschema, click) and normalising the workload's configs.
The result is written as JSON to ``--result``; the command's own output goes
to this process's stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import layers
from tracer import Tracer
from workloads import SANITY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _invoke(cli_main, argv: list[str]):
    """Exit code of ``skewdiff <argv>``, or "raised" if it raised."""
    try:
        cli_main(args=argv, prog_name="skewdiff")
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    except Exception:
        traceback.print_exc()
        return "raised"
    return 0


def check_report(name: str, code, out_dir: Path, n_criteria: int) -> dict:
    """What one experiment's run produced, and any fault in it.

    A fault (exit code other than 0/1, a raise, a missing or non-finite
    report, a criteria count or exit code that disagrees with the report,
    a failed ``workloads.SANITY`` check) counts every criterion of the
    experiment as failed.
    """
    rec = {"experiment": name, "exit_code": code, "failed": [],
           "fault": None, "digest": None}
    if code not in (0, 1):
        rec["fault"] = f"exit code {code}"
        return rec
    try:
        with open(out_dir / "report.json") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        rec["fault"] = f"report unreadable: {exc}"
        return rec
    report.pop("runtime_seconds", None)
    try:
        blob = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        rec["fault"] = "report holds a non-finite number"
        return rec
    rec["digest"] = hashlib.sha256(blob.encode()).hexdigest()
    criteria = report.get("criteria", [])
    rec["failed"] = [c["name"] for c in criteria if not c["passed"]]
    if len(criteria) != n_criteria:
        rec["fault"] = f"{len(criteria)} criteria, expected {n_criteria}"
    elif code != (1 if rec["failed"] else 0):
        rec["fault"] = f"exit code {code} disagrees with the report"
    else:
        try:
            bad = [what for what, ok in SANITY.get(name, ())
                   if not ok(report["metrics"])]
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            bad = [f"metric missing or malformed: {exc!r}"]
        if bad:
            rec["fault"] = "sanity check failed: " + "; ".join(bad)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import skewdiff
    import skewdiff.cli as cli
    from skewdiff.experiments import normalize_config

    if not Path(skewdiff.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"skewdiff imported from {skewdiff.__file__}, "
                         f"not from {ROOT / 'src'}")
    workload = WORKLOADS[args.workload]
    runs = []
    for name, config, n_crit in workload.configs(args.seed):
        normalize_config(config)
        exp_dir = args.out / name
        exp_dir.mkdir(parents=True, exist_ok=True)
        cfg_path = exp_dir / "config.json"
        cfg_path.write_text(json.dumps(config))
        runs.append((name, n_crit, exp_dir,
                     ["run", "--config", str(cfg_path), "--threads",
                      str(workload.threads), "--out", str(exp_dir)]))
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)

    load0 = os.getloadavg()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    codes = []
    for name, _, _, cmd in runs:
        with (tracer.span(layers.EXPERIMENT_SPAN, experiment=name)
              if tracer is not None else nullcontext()):
            codes.append(_invoke(cli.main, cmd))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    load1 = os.getloadavg()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result.update({
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kib / 1024.0,
        "loadavg_start": load0[0], "loadavg_end": load1[0],
        "reports": [check_report(name, code, exp_dir, n_crit)
                    for (name, n_crit, exp_dir, _), code in zip(runs, codes)],
    })
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = [vars(sp) for sp in tracer.spans]
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
