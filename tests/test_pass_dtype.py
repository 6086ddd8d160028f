"""The precision of the series and kernel passes: each pass picks its own dtype
by mixing._pass_dtype, float64 only where float64's roundoff floor, times
mixing._F64_MARGIN, meets its tolerance and its values stay that far inside
float64's range, and longdouble everywhere else.  The series states its floor
a priori (mixing._series_floor); the kernel measures float64's floor from its
entries' L1 sizes at the least t, on its Q_n rows rounded to float64.  A
longdouble pass keeps the bits it had before float64 passes existed; a
float64 pass stays within its stated floor of the longdouble pass at the
same node count; forced into float64 everywhere, both routes still give a
value within their gate against the DP, a NaN or a typed error."""

import contextlib
import hashlib
import io
import math
import pathlib
import random
import runpy

import numpy as np
import pytest

from kmmix import ChainParams, ConvergenceError, QuadratureConfig, QuadratureError, \
    RegimeError, kernel_matrix, kernel_oracle, mixing, reversibility, t_mix, tv_curve, \
    tv_oracle_curve
from kmmix.chain import _kernel_args
from kmmix.cli import main
from kmmix.mixing import _eps_floor, _series_floor, tv_quadrature
from kmmix.spectral import pole_errors, theta_nodes

import test_atlas
from conftest import EXAMPLE, GRID, RANDOM_CHAINS

LD, F64 = np.longdouble, np.float64
NEAR_CRITICAL = ChainParams(0.3, 0.32, 0.38)
SMALL_P = ChainParams(1e-8, 1e-4, 1.0 - 1e-8 - 1e-4)  # q/p = 1e4: (q/p)^(n/2) = 1e(2n)
CHAINS = [EXAMPLE, NEAR_CRITICAL, *GRID, *RANDOM_CHAINS]  # the bench's and conftest's chains
X87 = np.finfo(LD).nmant == 63  # longdouble is the x87 80-bit format

# (ts, series_tol) of the series calls and (ts, n_max, rows, cols) of the kernel calls
SERIES = {"tv_61": (range(61), 1e-12), "tv_pair": ([125, 126], 1e-12),
          "tv_span": ([0, 2000], 1e-12)}
KERNEL = {"kernel_block": (range(31), 6, None, None), "kernel_entry": (range(31), 6, [2], [3]),
          "kernel_n12": (range(31), 12, None, None)}


def run(name, chain):
    """The named call's values, as float64."""
    if name in SERIES:
        ts, tol = SERIES[name]
        return np.asarray(tv_curve(chain, ts, tol))
    ts, n_max, rows, cols = KERNEL[name]
    return kernel_matrix(chain, ts, n_max, rows=rows, cols=cols)


def pass_dtype(name, chain):
    """The dtype the plan gives the named call's pass."""
    if name in SERIES:
        return tv_quadrature(chain, *SERIES[name])[5]
    return kernel_pass(chain, *KERNEL[name])[3]


def kernel_pass(chain, ts, n_max, rows, cols):
    """mixing._kernel_ac's (AC parts, L1 twins, atom powers, dtype) of a kernel call."""
    ts, rows, cols = _kernel_args(ts, n_max, rows, cols)
    return mixing._kernel_ac(chain, ts, rows, cols, reversibility(chain).pi(cols),
                             QuadratureConfig())


def series_floor(chain, ts, series_tol, dtype):
    """The roundoff floor tv_quadrature states for tv_curve's pass in dtype."""
    cuts = tv_quadrature(chain, ts, series_tol)[0]
    return direct_floor(chain, min(cuts), max(cuts.values()), dtype)


def direct_floor(chain, t, n_cut, dtype):
    """32 eps (p/(q+r)) max(beta^t, tiny) (1 + r z) (1 + S/p) / 2, beta =
    r + 2 sqrt(pq), z = sqrt(p/q) and S = sum_{n=1}^{N} (n + 1) z^n summed
    directly, N = n_cut."""
    z, n = math.sqrt(chain.p / chain.q), np.arange(1, n_cut + 1)
    terms = np.sum((n + 1) * z ** n) / chain.p
    log_l1 = max(t * math.log(chain.support[1]), float(np.log(np.finfo(dtype).tiny))) \
        + math.log(0.5 + 0.5 * terms) + math.log(1.0 + chain.r * z)
    return _eps_floor(dtype) * chain.p / (chain.q + chain.r) * math.exp(log_l1)


@pytest.fixture
def force(monkeypatch):
    """force(dtype) runs every series and kernel pass in dtype, force(None)
    restores the rule."""
    rule = mixing._pass_dtype

    def switch(dtype):
        monkeypatch.setattr(mixing, "_pass_dtype", rule if dtype is None else
                            (lambda *args: dtype))
    yield switch


class TestLongdoublePasses:
    # sha256 (first 16 hex digits) of each call's float64 bytes over CHAINS,
    # every pass in longdouble, as computed before float64 passes existed
    BEFORE = {"tv_61": "a6fecbfe1621721c", "tv_pair": "5186769cd8126c7f",
              "tv_span": "2ce442603d4805ba", "kernel_block": "dc4ca02d179c622f",
              "kernel_entry": "5f8e1f32ee9a9dd5", "kernel_n12": "8cc961e322489de8"}

    @pytest.mark.skipif(not X87, reason="the digests are of x87 extended precision")
    @pytest.mark.parametrize("name", sorted(BEFORE))
    def test_longdouble_passes_keep_their_bits(self, force, name):
        force(LD)
        digest = hashlib.sha256()
        for chain in CHAINS:
            digest.update(run(name, chain).astype(float).tobytes())
        assert digest.hexdigest()[:16] == self.BEFORE[name]

    @pytest.mark.parametrize("name", sorted(BEFORE))
    def test_planned_longdouble_is_the_forced_one(self, force, name):
        # where the rule keeps longdouble the value is that pass's, bit for bit
        planned = {}
        for chain in CHAINS:
            if pass_dtype(name, chain) is LD:
                planned[chain] = run(name, chain)
        force(LD)
        for chain, values in planned.items():
            assert np.array_equal(values, run(name, chain), equal_nan=True), chain

    def test_both_dtypes_are_planned(self):
        # the rule is not all one way on these chains, for either pass
        for names in (SERIES, KERNEL):
            assert {pass_dtype(name, c) for name in names for c in CHAINS} == {LD, F64}


class TestFloat64Passes:
    @pytest.mark.parametrize("name", sorted(SERIES))
    def test_series_within_the_floors_of_the_longdouble_pass(self, force, name):
        ts, tol = SERIES[name]
        got = {c: run(name, c) for c in CHAINS if pass_dtype(name, c) is F64}
        assert got
        force(LD)
        for chain, values in got.items():
            ref = run(name, chain)
            # both floors, and the double roundoff of the terms and their fsum
            slack = series_floor(chain, ts, tol, F64) + series_floor(chain, ts, tol, LD) \
                + 4.0 * np.finfo(F64).eps * ref
            assert np.all(np.abs(values - ref) <= slack), chain

    @pytest.mark.parametrize("name", sorted(KERNEL))
    def test_kernel_within_the_floors_of_the_longdouble_pass(self, force, name):
        got = {c: kernel_pass(c, *KERNEL[name]) for c in CHAINS if pass_dtype(name, c) is F64}
        assert got
        force(LD)
        for chain, (ac, l1, atoms, dtype) in got.items():
            ref, ref_l1, ref_atoms, ref_dtype = kernel_pass(chain, *KERNEL[name])
            assert (dtype, ref_dtype) == (F64, LD) and np.array_equal(atoms, ref_atoms)
            # each AC part within both floors, and the rounding of the longdouble
            # one to a double
            slack = _eps_floor(F64) * l1 + _eps_floor(LD) * ref_l1 \
                + np.finfo(F64).eps * np.abs(ref)
            assert np.all(np.abs(ac - ref) <= slack), chain

    def test_exact_plan_states_the_float64_floor(self):
        # the near-critical series to t = 60 is pole-corrected at K = 64: its
        # bound is its floor alone, float64's, and E1, E2 the plan's longdouble
        # ones rounded once
        _, k, bound, e1, e2, dtype = tv_quadrature(NEAR_CRITICAL, range(61))
        assert (k, dtype) == (64, F64) and type(e1) is type(e2) is F64
        assert (e1, e2) == tuple(F64(e) for e in pole_errors(NEAR_CRITICAL, 64))
        assert bound == pytest.approx(series_floor(NEAR_CRITICAL, range(61), 1e-12, F64),
                                      rel=1e-12, abs=0.0)
        assert mixing._F64_MARGIN * bound <= QuadratureConfig().tol

    @pytest.mark.parametrize("chain", [*CHAINS, SMALL_P, ChainParams(0.3, 0.300001, 0.399999)])
    def test_closed_form_floor_is_the_direct_sum(self, chain):
        # _series_floor sums its terms (n + 1) z^n in closed form; at the
        # cutoffs of a short and a long series it agrees with the direct sum
        for ts in (range(61), range(2000, 2021)):
            cuts = tv_quadrature(chain, ts)[0]
            for dtype in (F64, LD):
                got = _series_floor(chain, min(cuts), max(cuts.values()), dtype)
                assert got == pytest.approx(series_floor(chain, ts, 1e-12, dtype), rel=1e-12,
                                            abs=0.0)

    @pytest.mark.parametrize("chain", [ChainParams(1e-100, 0.5, 0.5 - 1e-100),
                                       ChainParams(0.3, 0.30000001, 0.39999999)])
    def test_closed_form_floor_at_the_ends_of_z(self, chain):
        # z = sqrt(p/q) below 2^-54, where 1 - z rounds to 1, and z within
        # about 1e-8 of 1, where the closed form would cancel: at every cutoff
        # the floor is the direct sum's
        for n_cut in (0, 1, 2, 60, 1015, 10**5):
            for dtype in (F64, LD):
                assert _series_floor(chain, 5, n_cut, dtype) == pytest.approx(
                    direct_floor(chain, 5, n_cut, dtype), rel=1e-12, abs=0.0)


class TestDtypeRule:
    def test_bench_searches_run_in_float64(self, monkeypatch):
        # every series and kernel pass of every job the benchmark runs
        # (bench/workloads.py, read as a script, at seeds 101 and 202): its
        # t_mix searches, tv, kernel and verify jobs and route probes all
        # run in float64, so no longdouble pass is timed there; the t_mix
        # answers stand
        bench = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        workloads = runpy.run_path(str(bench))
        argvs = {tuple(argv): None for name in sorted(workloads["WHY"]) for seed in (101, 202)
                 for argv in workloads["jobs"](name, seed)}
        dtypes, rule = [], mixing._pass_dtype

        def recording(*args):
            dtypes.append(rule(*args))
            return dtypes[-1]
        monkeypatch.setattr(mixing, "_pass_dtype", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert [main(list(argv)) for argv in argvs] == [0] * len(argvs)
        assert t_mix(NEAR_CRITICAL, 1e-3) == 8392 and t_mix(EXAMPLE, 1e-6) == 126
        assert {argv[0] for argv in argvs} == {"analyze", "tv", "tmix", "kernel", "verify",
                                               "couple"}
        assert dtypes and set(dtypes) == {F64}

    def test_kernel_floor_is_weighed_by_pi_j(self):
        # the bench's one-entry kernel jobs on the worked example, t <= 30:
        # each entry's floor is pi_j eps L1, measured, and pi_j (q/p)^(j/2) =
        # (1/p) (p/q)^(j/2) shrinks it for a column j >= 1, so all 49 run in
        # float64 (46 by an a-priori bound on the entries, 30 by the bound on
        # |Q_i Q_j| alone)
        longdouble = [(i, j) for i in range(7) for j in range(7)
                      if kernel_pass(EXAMPLE, range(31), max(i, j), [i], [j])[3] is LD]
        assert longdouble == []

    @pytest.mark.parametrize("ts, n_max, gate", [
        ([0], 8, 1e-8),  # verify's orthogonality row (the DP is the identity)
        (range(31), 6, 1e-9)])  # the bench's block
    def test_kernel_runs_in_float64_where_its_measured_floor_allows(self, ts, n_max, gate):
        # the L1 measured on the rows at the least t lets float64's floor meet
        # tol; the values meet their gates against the DP, with no NaN
        assert kernel_pass(EXAMPLE, ts, n_max, None, None)[3] is F64
        values = kernel_matrix(EXAMPLE, ts, n_max)
        assert not np.isnan(values).any()
        assert np.all(np.abs(values - kernel_oracle(EXAMPLE, ts, n_max)) <= gate)

    # sha256 (first 16 hex digits) of the float64 bytes of kernel_matrix(EXAMPLE,
    # ts, 12), as computed before the kernel measured its floor
    @pytest.mark.parametrize("ts, digest", [(range(61), "01c023435def8463"),
                                            ([0, 5], "a4410ad44d7625cf")])
    def test_kernel_keeps_longdouble_where_its_measured_floor_misses(self, force, ts, digest):
        # the worked example's blocks to degree 12: the measured float64 floor
        # is 3.2e-10 at the least t, ten times which misses 1e-10; the pass is
        # the forced longdouble one, bit for bit
        assert kernel_pass(EXAMPLE, ts, 12, None, None)[3] is LD
        planned = kernel_matrix(EXAMPLE, ts, 12)
        force(LD)
        assert np.array_equal(planned, kernel_matrix(EXAMPLE, ts, 12))
        if X87:
            assert hashlib.sha256(planned.astype(float).tobytes()).hexdigest()[:16] == digest

    def test_float64_scales_out_of_range_keep_longdouble(self, force):
        # at series_tol 1e-320 the cutoff reaches N = 160 by t = 160, and
        # (q/p)^(n/2) passes the double range at n = 155: a float64 pass would
        # refuse t = 155, which the longdouble pass answers
        assert tv_quadrature(SMALL_P, range(155, 165), 1e-320)[5] is LD
        with pytest.raises(ConvergenceError, match="at t=160 leaves the double range"):
            tv_curve(SMALL_P, range(155, 165), series_tol=1e-320)
        force(F64)
        with pytest.raises(ConvergenceError, match="at t=155 leaves the double range"):
            tv_curve(SMALL_P, range(155, 165), series_tol=1e-320)

    def test_kernel_floor_keeps_longdouble_where_float64_would_nan(self, force):
        # the worked example's block to degree 12: float64's floor refuses
        # entries below the diagonal that longdouble's certifies
        assert kernel_pass(EXAMPLE, [0, 5], 12, None, None)[3] is LD
        assert not np.isnan(kernel_matrix(EXAMPLE, [0, 5], 12)).any()
        force(F64)
        assert np.isnan(kernel_matrix(EXAMPLE, [0, 5], 12)).any()

    @pytest.mark.parametrize("rows, cols", [(None, None), ([6], [0]), ([0], [6]), ([5, 6], [1, 2]),
                                            ([30], [0, 1, 29]), ([40], [3])])
    def test_kernel_nans_are_the_longdouble_ones(self, force, rows, cols):
        # pi_j weighs each entry's floor: no entry the longdouble pass
        # certifies comes back NaN from a float64 one
        n_max = 40 if rows else 8
        planned = [kernel_matrix(c, [0, 7, 30], n_max, rows=rows, cols=cols) for c in CHAINS]
        force(LD)
        for chain, got in zip(CHAINS, planned):
            ref = kernel_matrix(chain, [0, 7, 30], n_max, rows=rows, cols=cols)
            assert np.array_equal(np.isnan(got), np.isnan(ref)), chain

    def test_float64_nodes_are_the_longdouble_ones_rounded_once(self):
        for chain in (EXAMPLE, NEAR_CRITICAL):
            wide, narrow = theta_nodes(chain, 64, LD), theta_nodes(chain, 64, F64)
            assert narrow is theta_nodes(chain, 64, F64)  # cached per (chain, K, dtype)
            for a, b in zip(wide, narrow):
                assert b.dtype == F64 and not b.flags.writeable
                assert np.array_equal(b, a.astype(F64))


def test_forced_float64_gives_the_gate_a_nan_or_a_typed_error(force):
    # every series and kernel pass in float64, whatever its floor, on a seeded
    # sample of the atlas chains: each value meets its gate against the DP or
    # is NaN, or the call raises a typed error; the floors, not the sample,
    # keep wrong values out
    force(F64)
    for chain in random.Random(33).sample(test_atlas.CHAINS, 120):
        for call, exact, gate in (
                (lambda: tv_curve(chain, range(21)), lambda: tv_oracle_curve(chain, 20),
                 test_atlas.TV_GATE),
                (lambda: kernel_matrix(chain, [0, 20], 8),
                 lambda: kernel_oracle(chain, [0, 20], 8), test_atlas.KERNEL_GATE),
                (lambda: kernel_matrix(chain, [20], 8, rows=[8], cols=[0]),
                 lambda: kernel_oracle(chain, [20], 8, rows=[8], cols=[0]),
                 test_atlas.KERNEL_GATE)):
            try:
                values = np.asarray(call())
            except (ConvergenceError, QuadratureError, RegimeError):
                continue
            answered = ~np.isnan(values)
            assert np.all(np.abs(values - exact())[answered] <= gate), chain
