"""Correctness checks on the JSON output of each kmmix CLI job.

The checks run outside the timed region.  A job fails when it exits nonzero
or when its output breaks one of the gates below; the reference values come
from the exact DP oracle in kmmix.chain, an independent route from the
spectral series being checked.
"""

import json
import math

from kmmix.chain import ChainParams, tv_oracle

KERNEL_TOL = 1e-9     # |p_spectral - p_oracle|, the project's kernel gate
TV_TOL = 1e-8         # |tv_exact - tv_oracle|, the project's TV gate
INT_PHI_TOL = 1e-10   # analyze: AC mass against its closed form p/(q+r)
ENVELOPE_SLACK = 1e-12  # relative float slack on the envelope, as in verify
# The float64 DP oracle carries an absolute roundoff of a few ulp of the unit
# mass per step (about 6e-15 at t = 500 on the worked example), which exceeds
# the envelope's own width once TV falls below ~1e-13.  The oracle is held to
# the envelope up to this forward-error allowance per step taken.
DP_ROUNDOFF_PER_STEP = 4 * 2.0 ** -52
COUPLE_SIGMAS = 4.0   # the survival estimate's 4-sigma upper bound must reach TV


def _option(argv, name, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


class OutputChecker:
    """Judges job outputs; caches the DP oracle values it computes."""

    def __init__(self):
        self._oracle = {}

    def oracle(self, chain: ChainParams, t: int) -> float:
        key = (chain, t)
        if key not in self._oracle:
            self._oracle[key] = tv_oracle(chain, t)
        return self._oracle[key]

    def check(self, argv, code, text):
        """None when the job's output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(text)
            chain = ChainParams(**doc["params"])
            return getattr(self, "_" + argv[0])(argv, chain, doc["results"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}"

    def _analyze(self, argv, chain, res):
        if not abs(res["int_phi"] - res["int_phi_closed"]) <= INT_PHI_TOL:
            return f"int_phi {res['int_phi']!r} != p/(q+r) {res['int_phi_closed']!r}"
        return None

    def _kernel(self, argv, chain, res):
        rows = res["rows"]
        if [r["t"] for r in rows] != list(range(_option(argv, "--t-max", 30) + 1)):
            return "kernel rows do not cover t = 0..t_max"
        for r in rows:
            diff = abs(r["p_spectral"] - r["p_oracle"])
            if not (diff <= KERNEL_TOL and r["abs_diff"] <= KERNEL_TOL):
                return f"kernel t={r['t']}: |p_spectral - p_oracle| = {diff!r}"
        return None

    def _tv(self, argv, chain, res):
        rows = res["rows"]
        if [r["t"] for r in rows] != list(range(_option(argv, "--t-max", 60) + 1)):
            return "tv rows do not cover t = 0..t_max"
        for r in rows:
            t, exact, oracle = r["t"], r["tv_exact"], r["tv_oracle"]
            upper, lower, valid = r["tv_upper"], r["tv_lower"], r["lower_valid"]
            if not abs(exact - oracle) <= TV_TOL:
                return f"tv t={t}: |tv_exact - tv_oracle| = {abs(exact - oracle)!r}"
            slack = ENVELOPE_SLACK * max(upper, 1e-300)
            if not (exact <= upper + slack and (not valid or exact >= lower - slack)):
                return f"tv t={t}: tv_exact {exact!r} outside [{lower!r}, {upper!r}]"
            slack += DP_ROUNDOFF_PER_STEP * (t + 1)
            if not (oracle <= upper + slack and (not valid or oracle >= lower - slack)):
                return f"tv t={t}: tv_oracle {oracle!r} outside [{lower!r}, {upper!r}]"
        return None

    def _tmix(self, argv, chain, res):
        eps, exact, bound = res["eps"], res["t_mix_exact"], res["t_mix_bound"]
        if not exact <= bound:
            return f"t_mix_exact {exact} exceeds t_mix_bound {bound}"
        if not self.oracle(chain, exact) <= eps:
            return f"DP TV at t_mix_exact={exact} is above eps={eps!r}"
        if exact > 0 and not self.oracle(chain, exact - 1) > eps:
            return f"DP TV at t_mix_exact-1={exact - 1} is already below eps={eps!r}"
        return None

    def _verify(self, argv, chain, res):
        if res["all_passed"] is not True:
            failed = [c["name"] for c in res["checks"] if not c["passed"]]
            return f"verify checks failed: {failed}"
        return None

    def _couple(self, argv, chain, res):
        survival, n = res["survival"], res["replicas"]
        if not len(survival) == len(res["stderr"]) == res["horizon"] + 1:
            return "couple curve length is not horizon + 1"
        for t, s in enumerate(survival):
            if not wilson_upper(s, n, COUPLE_SIGMAS) >= self.oracle(chain, t):
                return (f"couple t={t}: survival {s!r} of {n} replicas is "
                        f"{COUPLE_SIGMAS:g} sigma below the exact TV {self.oracle(chain, t)!r}")
        return None


def wilson_upper(share: float, n: int, z: float) -> float:
    """Upper end of the Wilson score interval for a binomial share.

    The coupling inequality says P(coupling time > t) >= TV(t).  The printed
    stderr sqrt(s(1-s)/n) is 0 when no replica survives, while at t near 100
    on the worked example TV is 1.6e-5, so about 1.6 of 1e5 replicas are
    expected to survive and none do in roughly one seed in five.  The Wilson
    bound stays about z^2/n there and approaches s + z stderr for large counts."""
    centre = share + z * z / (2 * n)
    half = z * math.sqrt(share * (1 - share) / n + z * z / (4 * n * n))
    return (centre + half) / (1 + z * z / n)
