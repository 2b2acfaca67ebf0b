"""Batch experiment driver.

Exit codes: 0 all criteria pass, 1 criteria unmet, 2 invalid config,
3 runtime failure.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from .errors import ConfigInvalid, SkewDiffError
from .experiments import (
    EXPERIMENTS,
    emit_plot_data,
    normalize_config,
    output_file,
    run_experiment,
)


def _no_constant(name: str):
    raise ConfigInvalid(f"config is not valid JSON: {name} is not a number")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, parse_constant=_no_constant)
    except FileNotFoundError as exc:
        raise ConfigInvalid(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: "
                            f"{exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    return config


@click.group()
def main():
    """Simulation and verification experiments for skew-reflected diffusions."""


@main.command("list-experiments")
def list_experiments():
    """Print the available experiment names."""
    for name in EXPERIMENTS:
        click.echo(name)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="JSON experiment configuration.")
def validate(config_path):
    """Validate a configuration file without running it."""
    try:
        cfg = normalize_config(_load_config(config_path))
    except ConfigInvalid as exc:
        click.echo(f"invalid: {exc}", err=True)
        sys.exit(2)
    click.echo(f"ok: {cfg['experiment']}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="JSON experiment configuration.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--threads", type=int, default=1,
              help="Workers that draw each chunk's random numbers (at most "
                   "the CPUs available). The step loop runs on the calling "
                   "thread.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output directory (default: config output_dir or cwd).")
def run(config_path, seed, threads, out_dir):
    """Run an experiment and write report.json plus plot-data CSVs."""
    # config errors found while the experiment runs also exit 2, and so does
    # an output directory that cannot be made, before anything runs
    try:
        config = _load_config(config_path)
        if seed is not None:
            config["seed"] = seed
        config = normalize_config(config)
        out = out_dir or config.get("output_dir") or "."
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigInvalid(f"cannot create output directory {out}: "
                                f"{exc.strerror}") from exc
        bundle = run_experiment(config, threads=threads)
    except ConfigInvalid as exc:
        click.echo(f"invalid config: {exc}", err=True)
        sys.exit(2)
    except SkewDiffError as exc:
        click.echo(f"runtime failure: {exc}", err=True)
        sys.exit(3)
    except MemoryError as exc:
        # numpy refuses an array it cannot allocate before making it
        click.echo(f"runtime failure: out of memory: {exc}", err=True)
        sys.exit(3)

    report = bundle["report"]
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = None
    plotted = (v for _, rows in bundle["plot_data"].values()
               for row in rows for v in row)
    if text is None or not all(math.isfinite(float(v)) for v in plotted):
        click.echo("runtime failure: the report or its plot data holds a "
                   "non-finite number; nothing written", err=True)
        sys.exit(3)
    # report.json goes last, and a failed write removes what this run wrote,
    # so a report on disk always comes with all of its plot data
    written = []
    try:
        for kind in bundle["plot_data"]:
            written.append(emit_plot_data(bundle, kind, out))
        with output_file(os.path.join(out, "report.json")) as fh:
            fh.write(text + "\n")
    except OSError as exc:
        for path in written:
            os.remove(path)
        click.echo(f"runtime failure: cannot write to {out}: {exc.strerror}",
                   err=True)
        sys.exit(3)

    for crit in report["criteria"]:
        status = "PASS" if crit["passed"] else "FAIL"
        click.echo(f"[{status}] {crit['name']} (tolerance: {crit['tolerance']}) "
                   f"-- {crit['detail']}")
    if report["passed"]:
        click.echo("all criteria passed")
        sys.exit(0)
    click.echo("criteria unmet", err=True)
    sys.exit(1)


if __name__ == "__main__":
    main()
