"""Benchmark workloads: which experiments a pass runs, and how.

Every experiment runs at its default config (the acceptance scale) unless a
workload says otherwise; ``seed`` is the benchmark's ``--seed``.  Why each
workload exists is in NOTES.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    threads: int
    # (experiment, config overrides, number of criteria its report holds)
    experiments: tuple[tuple[str, dict, int], ...]

    def configs(self, seed: int) -> list[tuple[str, dict, int]]:
        return [(name, {"experiment": name, "seed": seed, **over}, n_crit)
                for name, over, n_crit in self.experiments]


WORKLOADS = {
    "wide-terminals": Workload(threads=2, experiments=(
        ("cir-baseline", {}, 1),
        ("besq-law", {}, 1),
        ("skew-occupation", {}, 1),
        ("dsr-demo", {}, 2),
    )),
    "reweight": Workload(threads=1, experiments=(
        ("girsanov-consistency", {}, 2),
    )),
    "narrow-oracle": Workload(threads=1, experiments=(
        ("localtime-ratios", {}, 3),
        ("relloc-identity", {}, 2),
        ("stationary-skew", {}, 2),
        ("regime-check", {}, 4),
        # the refined oracle grid makes the PDE solves a visible share of
        # the pass; at n_x=401 they are ~1.4 s of 23 s and no PDE change
        # could show
        ("pde-cross-check",
         {"n_paths": 4000, "options": {"n_x": 801, "n_t": 512}}, 4),
    )),
}

# Criteria that fail on unchanged code at some seeds: workload ->
# {(experiment, criterion name)}.  A criterion is listed when it was seen to
# fail on unchanged code, or when it is a 3-SE or 95%-CI gate, whose
# per-seed false-fail rate on correct code is 0.3% or more (cir-baseline's
# mean also carries a discretisation bias of about 1 SE).  The benchmark
# runs at arbitrary seeds, so such a gate fails now and then on correct
# code.  Listed failures are counted in ``failed`` like any other; listing
# one only stops it from marking the run incorrect.  SANITY below still
# checks the numbers behind each listed criterion.  Never re-seed around a
# failure: the seeds and numbers are in NOTES.md.
KNOWN_FAILURES = {
    "wide-terminals": {
        ("cir-baseline", "mean within 3 SE of the first-moment ODE value"),
        ("dsr-demo", "moment ODE self-consistency within 3 SE"),
    },
    "reweight": {
        # a 3-SE gate on a heavy-tailed mean; fails at seed 19 (1.00134)
        ("girsanov-consistency", "unnormalized mean weight within 3 SE of 1"),
        ("girsanov-consistency",
         "reweighted and direct estimates have overlapping 95% CIs"),
    },
    "narrow-oracle": {
        # strict decreases between two Monte Carlo errors of similar size
        ("localtime-ratios", "ratio error decreases under dt refinement"),
        ("relloc-identity", "residual decreases under dt refinement"),
        # fails at seed 27 (ratio 3.436 against 3 +- 10%)
        ("stationary-skew",
         "density jump ratio at the barrier within 10% of p/(1-p)"),
    },
}


def _z(m: dict, a: str, b: str) -> float:
    """|a - b| in standard errors of their difference, from report metrics."""
    se = math.hypot(m[a].get("std_error") or 0.0, m[b].get("std_error") or 0.0)
    return abs(m[a]["value"] - m[b]["value"]) / se


# Checks the benchmark makes on a report's metrics, experiment ->
# [(description, check)].  They must hold at every seed: each widens a
# criterion listed above (6 standard errors where it asks for 3; a Gaussian
# estimate is that far off at about 1 seed in 10^8, 10^6 with a 1-SE bias),
# so that a real defect still marks the run incorrect.  The strict-decrease
# gates need none: the fine-grid errors they compare are bounded by criteria
# that are not listed.
SANITY = {
    "cir-baseline": [
        ("mean within 6 SE of the first-moment ODE value",
         lambda m: _z(m, "mean_estimate", "target_mean") <= 6.0)],
    "dsr-demo": [
        ("moment ODE self-consistency within 6 SE",
         lambda m: _z(m, "moment_lhs", "moment_rhs") <= 6.0)],
    "girsanov-consistency": [
        ("unnormalized mean weight within 6 SE of 1",
         lambda m: abs(m["mean_weight"]["value"] - 1.0)
         <= 6.0 * m["mean_weight"]["std_error"]),
        ("reweighted and direct estimates within 6 SE of each other",
         lambda m: _z(m, "reweighted_estimate", "direct_estimate") <= 6.0)],
    "stationary-skew": [
        ("density jump ratio within 25% of p/(1-p)",
         lambda m: abs(m["jump_ratio"]["value"]
                       / m["target_jump_ratio"]["value"] - 1.0) <= 0.25)],
}
