"""The benchmark's four workloads: fixed lists of kmmix CLI jobs.

Every workload is closed-loop in one process: each job is one call of
kmmix.cli.main(argv) and starts when the previous one has returned.  The
workload seed only sets the kernel pairs of spectral-worked and the
--seed of every couple job; all other inputs are fixed.
"""

import random

WORKED = ["--p", "1/11", "--q", "9/11"]  # the paper's example, r = 1/11
NEAR_CRITICAL = ["--p", "0.3", "--q", "0.32", "--r", "0.38"]

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "spectral-worked": "The paper's example: per-point quadrature (q_values, "
                       "node/weight passes) dominates, the series is short and "
                       "nothing is simulated; verify is most of the time.",
    "series-near-critical": "Near criticality the TV series runs to N ~ 1100 "
                            "degrees, so the bracket matrix and the series sum "
                            "dominate tv and tmix.",
    "dp-long-horizon": "tv to t = 500 recomputes the DP oracle from scratch per "
                       "t, the only CLI path where chain.evolve dominates.",
    "coupling-mc": "couple at 1e5 replicas x 100 steps on both chains: only RNG "
                   "draws and the coupling step run, so the other workloads "
                   "should not move with them.",
}


def route_probe(seed: int) -> list:
    """One tiny job per route (spectral kernel, series TV, coupling), added to
    every workload so that every traced layer runs, and reports a measured
    time, on every workload.  Together they take a few tens of ms."""
    return [
        ["kernel", *WORKED, "--i", "1", "--j", "2", "--t-max", "2"],
        ["tv", *WORKED, "--t-max", "2"],
        ["couple", *WORKED, "--horizon", "10", "--replicas", "2000",
         "--window-lo", "2", "--seed", str(seed)],
    ]


def kernel_pairs(seed: int) -> list:
    """Three distinct (i, j) pairs in 0..6, drawn from the seed."""
    grid = [(i, j) for i in range(7) for j in range(7)]
    return random.Random(seed).sample(grid, 3)


def jobs(name: str, seed: int) -> list:
    """The argv lists of one pass of workload `name`, in run order."""
    if name == "spectral-worked":
        main = [["analyze", *WORKED]]
        main += [["kernel", *WORKED, "--i", str(i), "--j", str(j), "--t-max", "30"]
                 for i, j in kernel_pairs(seed)]
        main += [["tv", *WORKED, "--t-max", "60"],
                 ["tmix", *WORKED, "--eps", "1e-6"],
                 ["verify", *WORKED]]
    elif name == "series-near-critical":
        main = [["analyze", *NEAR_CRITICAL],
                ["tv", *NEAR_CRITICAL, "--t-max", "20"],
                ["tmix", *NEAR_CRITICAL, "--eps", "1e-3"],
                ["kernel", *NEAR_CRITICAL, "--i", "2", "--j", "3", "--t-max", "30"]]
    elif name == "dp-long-horizon":
        main = [["tv", *WORKED, "--t-max", "500"]]
    elif name == "coupling-mc":
        main = [["couple", *chain, "--mode", mode, "--horizon", "100",
                 "--replicas", "100000", "--seed", str(seed)]
                for chain in (WORKED, NEAR_CRITICAL)
                for mode in ("modified", "classical")]
    else:
        raise ValueError(f"unknown workload {name!r}; choose one of {sorted(WHY)}")
    return main + route_probe(seed)


# The reference kernel (bench/reference.py) each workload's jobs are divided
# by: coupling-mc streams 1e5-element arrays, the others are interpreter-bound.
REFERENCE = {
    "spectral-worked": "interpreter",
    "series-near-critical": "interpreter",
    "dp-long-horizon": "interpreter",
    "coupling-mc": "array",
}
