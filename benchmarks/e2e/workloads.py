"""The four workloads and the untraced campaign that measures them.

Callers of this program are propagator/analysis campaigns: per gauge
configuration they pay one adaptive setup, then many solves, directly
or through ``SolveService``, each blocking on its reply.  So the load
is a closed loop with one client; a burst is that client submitting K
requests back to back and waiting for all of them.

Every workload runs the same campaign *round* — a cold request (whose
``register`` part is the setup sample), single solves, served requests,
one K=8 burst and disk restores — because the benchmark contract wants
every end-to-end metric from every workload.  The workloads differ in
the operator configuration, in whether the state is cold or warm, and
in how many samples of each kind a round takes.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from hostnoise import Samples

K_BATCH = 8
OP_NAME = "bench"
#: a recomputed residual may exceed the requested tolerance by this much
RESIDUAL_SLACK = 1.5
SETUP_SEED = 1

END_TO_END = (
    "setup_s",
    "cold_request_s",
    "restore_s",
    "solve_s",
    "batch_per_rhs_s",
    "warm_request_s",
    "router_request_s",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    null_iters: int
    #: samples of each kind per round (cold and burst are always one)
    solves: int
    warm_requests: int
    router_requests: int
    restores: int
    #: paper-size subspace (``null_scale=1``) on these blockings, or the
    #: stock scaled dataset when ``None``
    paper_blockings: tuple | None = None
    #: every round measures on a freshly built hierarchy
    cold_state: bool = False
    #: the burst goes to ``solve_multi(batched=True)``, not the service
    direct_burst: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cold_setup",
            why="new setup every round and everything measured on the cold "
            "hierarchy: relaxation-dominated, restore uses Galerkin only",
            strategy="24/24", null_iters=60,
            solves=1, warm_requests=1, router_requests=1, restores=3, cold_state=True,
        ),
        Workload(
            name="warm_single_rhs",
            why="one warm hierarchy, sequential single solves: level 0 is "
            "~95% of a solve, so fine-operator and smoother changes show",
            strategy="24/24", null_iters=60,
            solves=4, warm_requests=1, router_requests=1, restores=3,
        ),
        Workload(
            name="serve_batch_k8",
            why="same numerics through SolveService: blocking requests and "
            "K=8 bursts cross the batcher and the apply_multi twins",
            strategy="24/24", null_iters=60,
            solves=1, warm_requests=3, router_requests=2, restores=3,
        ),
        Workload(
            name="coarse_heavy",
            why="paper-size subspace (N=48 on level 1, N=64 on level 2): coarse "
            "operator, Galerkin and the ~70-iteration coarsest solve dominate",
            strategy="24/32", null_iters=6,
            solves=1, warm_requests=1, router_requests=1, restores=1,
            paper_blockings=((2, 2, 2, 2), (1, 1, 1, 2)), direct_burst=True,
        ),
    )
}


@dataclass
class Problem:
    """One workload's operator, parameters and request stream."""

    workload: Workload
    dataset: object
    op: object
    params: object
    tol: float
    rhs_rng: np.random.Generator
    gauge_s: float
    operator_s: float

    def rhs(self) -> np.ndarray:
        shape = (self.op.lattice.volume, self.op.ns, self.op.nc)
        return self.rhs_rng.standard_normal(shape) + 1j * self.rhs_rng.standard_normal(shape)

    def setup_rng(self) -> np.random.Generator:
        """The adaptive setup's own randomness, the same in every run.

        Tying it to ``--seed`` moves the null space, and with it every
        solve of a run, by one outer iteration (11 -> 12, +9%) for about
        one seed in three: a difference between inputs, not between
        commits.  The seed check in the README varies it on purpose.
        """
        return np.random.default_rng(SETUP_SEED)


def make_problem(workload: Workload, seed: int, smoke: bool = False) -> Problem:
    """Generate the inputs; the program only ever receives these arrays.

    The gauge field is fixed by the dataset (its ``m_crit`` is
    calibrated to that configuration) and the setup RNG by
    ``SETUP_SEED``; ``seed`` drives the right-hand sides.
    """
    from repro.dirac.wilson import WilsonCloverOperator
    from repro.workloads.datasets import ANISO40_SCALED
    from repro.workloads.presets import mg_params_for

    ds = ANISO40_SCALED
    if workload.paper_blockings is not None:
        # smoke halves the subspace: Galerkin work goes with its square
        ds = dataclasses.replace(
            ds, null_scale=2 if smoke else 1, blockings=list(workload.paper_blockings)
        )
    t0 = time.perf_counter()
    gauge = ds.gauge()
    t1 = time.perf_counter()
    op = WilsonCloverOperator(gauge, **ds.operator_kwargs())
    t2 = time.perf_counter()
    # smoke keeps every code path and shrinks the work: a few relaxation
    # sweeps, a loose tolerance, one sample of each kind
    null_iters = 8 if smoke else workload.null_iters
    tol = 1e-1 if smoke else ds.target_residuum
    if smoke:
        workload = dataclasses.replace(
            workload, solves=1, warm_requests=1, router_requests=1, restores=1
        )
    params = mg_params_for(ds, workload.strategy, null_iters=null_iters)
    params.outer_tol = tol
    return Problem(
        workload=workload, dataset=ds, op=op, params=params, tol=tol,
        rhs_rng=np.random.default_rng([seed, 1]),
        gauge_s=t1 - t0, operator_s=t2 - t1,
    )


def serve_config():
    from repro.serve import ServeConfig

    return ServeConfig(max_batch=K_BATCH, max_wait_s=0.05, n_workers=1)


# -- correctness and failure accounting -----------------------------------


@dataclass
class Outcome:
    """Operations attempted and failed; a failure is never a dropped sample."""

    attempted: int = 0
    failed: int = 0
    worst_residual_over_tol: float = 0.0
    errors: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.errors) < 20:
            self.errors.append(why)

    def check(self, op, b: np.ndarray, result, tol: float) -> None:
        """Recompute ``|b - M x| / |b|``; call outside the timed region."""
        self.attempted += 1
        true_res = float(np.linalg.norm(b - op.apply(result.x)) / np.linalg.norm(b))
        self.worst_residual_over_tol = max(self.worst_residual_over_tol, true_res / tol)
        if not result.converged:
            self.fail(1, f"not converged after {result.iterations} iterations")
        elif not true_res <= RESIDUAL_SLACK * tol:
            self.fail(1, f"true residual {true_res:.3e} > {RESIDUAL_SLACK} * {tol:.1e}")

    def attempt(self, n: int, fn, *args, **kwargs):
        """Run ``fn``; an exception fails the ``n`` operations it carried."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # boundary: the benchmark must report, not die
            self.attempted += n
            self.fail(n, f"{type(exc).__name__}: {exc}")
            return None

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# -- the campaign -----------------------------------------------------------


class Serving:
    """A registered operator and every way the client reaches it."""

    def __init__(self, problem: Problem):
        from repro.serve import SetupCache, SolveService

        self.problem = problem
        self.cache = SetupCache()
        self.service = SolveService(serve_config(), cache=self.cache)
        self.router = None

    def register(self) -> None:
        """On an empty cache this is the adaptive setup."""
        p = self.problem
        self.service.register(OP_NAME, p.op, p.params, rng=p.setup_rng())

    def attach(self) -> None:
        """Direct solver and 2-shard router over the registered hierarchy."""
        from repro.fleet import FleetRouter, RouterConfig, default_fleet
        from repro.mg import MultigridSolver

        p = self.problem
        self.hierarchy = self.cache.get_or_build(p.op, p.params)  # memory hit
        self.solver = MultigridSolver.from_hierarchy(self.hierarchy, p.params)
        self.router = FleetRouter(
            default_fleet(2), RouterConfig(serve=serve_config()),
            hierarchy_source=self.cache,
        )
        self.router.register(OP_NAME, p.op, p.params)  # adopts, no setup

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
        self.service.close()


class Campaign:
    """Runs rounds of one workload and keeps the raw samples."""

    def __init__(self, problem: Problem, outcome: Outcome, workdir: str):
        self.p = problem
        self.outcome = outcome
        self.workdir = workdir
        self.samples = Samples()
        self.rounds = 0
        self.warm: Serving | None = None  # kept across rounds
        self.disk_dir: str | None = None
        self._deadline: float | None = None
        self._cost: dict[str, float] = {}  # slowest operation of each kind

    def close(self) -> None:
        if self.warm is not None:
            self.warm.close()
            self.warm = None

    # -- one sample of each kind -----------------------------------------
    def _cold_request(self) -> Serving:
        """Empty cache -> register -> first solve returns."""
        p = self.p
        b = p.rhs()
        serving = Serving(p)
        try:
            t0 = time.perf_counter()
            serving.register()
            t1 = time.perf_counter()
            result = serving.service.solve(OP_NAME, b, tol=p.tol)
            t2 = time.perf_counter()
            serving.attach()
        except BaseException:
            serving.close()
            raise
        self.samples.add("setup_s", t0, t1)
        self.samples.add("cold_request_s", t0, t2)
        self.outcome.check(p.op, b, result, p.tol)
        return serving

    def _persist(self, hierarchy) -> None:
        from repro.serve import SetupCache

        self.disk_dir = tempfile.mkdtemp(prefix="setup-", dir=self.workdir)
        SetupCache(disk_dir=self.disk_dir).seed(self.p.op, self.p.params, hierarchy)

    def _restore(self) -> None:
        """Warm restart: ``register`` on a fresh cache over the persisted npz."""
        from repro.serve import SetupCache, SolveService

        p = self.p
        cache = SetupCache(disk_dir=self.disk_dir)
        with SolveService(serve_config(), cache=cache) as svc:
            t0 = time.perf_counter()
            svc.register(OP_NAME, p.op, p.params)
            t1 = time.perf_counter()
        self.samples.add("restore_s", t0, t1)
        self.outcome.attempted += 1
        if cache.stats["disk_hits"] != 1:
            self.outcome.fail(1, f"restore did not hit the disk cache: {cache.stats}")

    def _timed_solve(self, metric: str, solve) -> None:
        """One blocking single-RHS solve through ``solve(b, tol=...)``."""
        b = self.p.rhs()
        t0 = time.perf_counter()
        result = solve(b, tol=self.p.tol)
        t1 = time.perf_counter()
        self.samples.add(metric, t0, t1)
        self.outcome.check(self.p.op, b, result, self.p.tol)

    def _burst(self, serving: Serving) -> None:
        bs = [self.p.rhs() for _ in range(K_BATCH)]
        t0 = time.perf_counter()
        if self.p.workload.direct_burst:
            results = serving.solver.solve_multi(np.stack(bs), batched=True, tol=self.p.tol)
        else:
            results = serving.service.solve_many(OP_NAME, bs, tol=self.p.tol)
        t1 = time.perf_counter()
        self.samples.add("batch_per_rhs_s", t0, t1, divisor=K_BATCH)
        for b, result in zip(bs, results):
            self.outcome.check(self.p.op, b, result, self.p.tol)

    # -- rounds ------------------------------------------------------------
    def _op(self, kind: str, n: int, fn, *args):
        """One operation of ``kind`` carrying ``n`` requests, unless a
        deadline is set and the slowest such operation so far would miss it."""
        t0 = time.perf_counter()
        if self._deadline is not None and t0 + self._cost.get(kind, 0.0) > self._deadline:
            return None
        out = self.outcome.attempt(n, fn, *args)
        self._cost[kind] = max(self._cost.get(kind, 0.0), time.perf_counter() - t0)
        return out

    def _cold(self) -> Serving | None:
        fresh = self._op("cold", 1, self._cold_request)
        if fresh is not None and self.disk_dir is None:
            self.outcome.attempt(1, self._persist, fresh.hierarchy)
        return fresh

    def round(self, deadline: float | None = None) -> None:
        """One campaign round; kinds interleave so that each metric's
        samples spread over the whole run and its changing host speed.
        With a ``deadline`` only the operations that fit are run, the
        burst first: it is the kind with the fewest samples."""
        w = self.p.workload
        self._deadline = deadline
        # a warm workload needs its cold request first only once, to get
        # the long-lived service; afterwards it goes last, so that what
        # is left of the time goes to the kinds a round has one of
        cold_first = w.cold_state or self.warm is None
        fresh = self._cold() if cold_first else None
        if not w.cold_state and self.warm is None:
            self.warm = fresh
        use = fresh if w.cold_state else self.warm
        if use is None:
            return
        try:
            self._op("burst", K_BATCH, self._burst, use)
            for _ in range(w.warm_requests):
                self._op(
                    "warm", 1, self._timed_solve, "warm_request_s",
                    lambda b, tol: use.service.solve(OP_NAME, b, tol=tol),
                )
            for _ in range(w.router_requests):
                self._op(
                    "router", 1, self._timed_solve, "router_request_s",
                    lambda b, tol: use.router.solve(OP_NAME, b, tol=tol),
                )
            for _ in range(w.solves):
                self._op("solve", 1, self._timed_solve, "solve_s", use.solver.solve)
            if self.disk_dir is not None:
                for _ in range(w.restores):
                    self._op("restore", 1, self._restore)
        finally:
            if use is not self.warm:
                use.close()
        if not cold_first:
            late = self._cold()
            if late is not None:
                late.close()
        self.rounds += 1

    def run(self, seconds: float, on_first_round=None) -> None:
        """Whole rounds while one fits into ``seconds``, then the
        operations of one more round that still fit."""
        deadline = time.perf_counter() + seconds
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            self.round()
            if self.rounds == 1 and on_first_round is not None:
                on_first_round()
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now + longest > deadline or not self.rounds:
                break
        self.round(deadline)


def warm_up(problem: Problem, workdir: str) -> None:
    """One discarded cheap pass through every kind of operation, so that
    lazy imports and first-call construction are in no sample."""
    from repro.serve import SetupCache
    from repro.workloads.datasets import ANISO40_SCALED
    from repro.workloads.presets import mg_params_for

    # the stock 6/6-vector hierarchy: same code paths, a fraction of a second
    params = mg_params_for(ANISO40_SCALED, "24/24", null_iters=2)
    cheap = dataclasses.replace(
        problem, params=params, tol=0.1, rhs_rng=np.random.default_rng(0)
    )
    serving = Serving(cheap)
    try:
        serving.register()
        serving.attach()
        bs = [cheap.rhs(), cheap.rhs()]
        serving.service.solve(OP_NAME, bs[0], tol=cheap.tol)
        serving.service.solve_many(OP_NAME, bs, tol=cheap.tol)
        serving.router.solve(OP_NAME, bs[0], tol=cheap.tol)
        serving.solver.solve(bs[0], tol=cheap.tol)
        serving.solver.solve_multi(np.stack(bs), batched=True, tol=cheap.tol)
        disk_dir = tempfile.mkdtemp(prefix="warmup-", dir=workdir)
        SetupCache(disk_dir=disk_dir).seed(cheap.op, params, serving.hierarchy)
        SetupCache(disk_dir=disk_dir).get_or_build(cheap.op, params)
    finally:
        serving.close()


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Scratch inside the checkout, removed on exit or ``cleanup()``."""
    return tempfile.TemporaryDirectory(prefix=".e2e-work-", dir=".")
