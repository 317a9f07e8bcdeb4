"""Workload ``analysis_session``: a replayed in-process notebook session.

One operation is one session *round* on a default-configured
``EvaluationEngine()`` (store capacity 4096, no process pools): three
1-D ``sweep_batch`` axes of :data:`SWEEP_POINTS` points, one
:data:`HEAT_SIDE` x :data:`HEAT_SIDE` ``pairwise_heatmap_batch``, one
materialised ``explore_batch`` grid of :data:`GRID_SIDE`\\ :sup:`3`
configurations, one ``tornado`` and one materialised
``monte_carlo_batch`` of :data:`MC_DRAWS` draws.  Every window moves by
half its width per round, so each round's inputs half-overlap the
previous round's, and a round's ~14k rows exceed the store: digests,
inserts, evictions, the chain evaluator, ``ParameterBatch`` builds and
suite builds dominate.  The fused kernel and the serving tier are
absent.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from repro.analysis import monte_carlo_batch, tornado
from repro.analysis.dse import explore_batch
from repro.analysis.heatmap import pairwise_heatmap_batch
from repro.analysis.sweep import sweep_batch
from repro.config import Parameters
from repro.core.comparison import PlatformComparator
from repro.core.scenario import Scenario
from repro.engine import EvaluationEngine, PeakRssSampler
from repro.experiments import ext_uncertainty

from common import (
    OUT_DIR, Result, Tracer, derive_seed, median, percentile,
)
import layers

SWEEP_POINTS = 256
HEAT_SIDE = 100
GRID_SIDE = 8
MC_DRAWS = 3000
POOL = 1024
#: Fresh child-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Sampled cells per call re-evaluated through the scalar model.
SAMPLES = 2
RTOL = 1e-12
DOMAIN = "dnn"

#: Ranges inside which the ratio is monotone in each axis.  Below two
#: applications the FPGA has nothing to amortise over (with one app the
#: ratio is (a + bT)/(c + dT) and may fall with lifetime), and at
#: lifetimes of 8 years and more the chip-lifetime generation step
#: makes the ratio drop; both regimes lie outside the paper's claim.
NUM_APPS_MIN = 2
LIFETIME_RANGE = (0.25, 7.5)
VOLUME_RANGE = (1.0e3, 1.0e8)

#: Child set-up: interpreter start, imports, comparator and suite build.
_SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src')\n"
    "import repro.analysis, repro.analysis.dse, repro.analysis.heatmap\n"
    "from repro.config import Parameters\n"
    "from repro.core.comparison import PlatformComparator\n"
    "from repro.engine import EvaluationEngine\n"
    "from repro.experiments import ext_uncertainty\n"
    "PlatformComparator.for_domain('dnn').compare(ext_uncertainty.BASELINE)\n"
    "Parameters().build_suite()\n"
    "EvaluationEngine().close()\n"
)


def _ping_pong(position: int, stops: int) -> int:
    """Window index ``position`` steps along a back-and-forth walk."""
    if stops <= 1:
        return 0
    period = 2 * (stops - 1)
    step = position % period
    return step if step < stops else period - step


def _window(pool: np.ndarray, width: int, position: int) -> np.ndarray:
    """Width-``width`` window moved ``position`` half-widths (bouncing)."""
    half = width // 2
    stops = (len(pool) - width) // half + 1
    start = _ping_pong(position, stops) * half
    return pool[start:start + width]


class Session:
    """Seeded inputs of every round."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, "session"))
        self.seed = seed
        self.comparator = PlatformComparator.for_domain(DOMAIN)
        self.base = Scenario(num_apps=5, app_lifetime_years=2.0,
                             volume=1_000_000)
        self.dists = ext_uncertainty.distributions()
        self.num_apps = np.arange(NUM_APPS_MIN, NUM_APPS_MIN + POOL)
        self.lifetimes = np.unique(np.round(rng.uniform(*LIFETIME_RANGE, POOL + 64), 6))[:POOL]
        self.volumes = np.unique(np.round(np.exp(rng.uniform(
            *np.log(VOLUME_RANGE), POOL + 64))).astype(np.int64))[:POOL]
        self.grid_pools = {
            "duty_cycle": np.unique(np.round(rng.uniform(0.05, 0.95, 64), 6)),
            "pue": np.unique(np.round(rng.uniform(1.05, 2.0, 64), 6)),
            "design_gate_scaling_beta": np.unique(np.round(rng.uniform(0.2, 0.6, 64), 6)),
        }
        self.start = int(rng.integers(0, 1000))

    def inputs(self, r: int) -> dict:
        """Every call's inputs for round ``r``."""
        k = self.start + r
        grid = {
            name: tuple(float(v) for v in _window(
                pool, GRID_SIDE, (k + 2 - axis) // 3))
            for axis, (name, pool) in enumerate(self.grid_pools.items())
        }
        lifetimes = _window(self.lifetimes, SWEEP_POINTS, k)
        return {
            "num_apps": _window(self.num_apps, SWEEP_POINTS, k),
            "lifetime": lifetimes,
            "volume": _window(self.volumes, SWEEP_POINTS, k),
            "heat_x": _window(self.lifetimes, HEAT_SIDE, (k + 1) // 2),
            "heat_y": _window(self.volumes, HEAT_SIDE, k // 2),
            "grid": grid,
            "tornado": self.base.with_lifetime(float(lifetimes[0])),
            "mc_seed": derive_seed(self.seed, "mc", r),
        }


def run_round(session: Session, inputs: dict, engine) -> tuple[dict, list[float]]:
    """One session round; returns the call outputs and per-call seconds."""
    comparator, base = session.comparator, session.base
    out, laps = {}, []
    for axis in ("num_apps", "lifetime", "volume"):
        start = time.perf_counter()
        out[axis] = sweep_batch(comparator, base, axis, inputs[axis],
                                engine=engine)
        laps.append(time.perf_counter() - start)
    start = time.perf_counter()
    out["heatmap"] = pairwise_heatmap_batch(
        comparator, base, "lifetime", inputs["heat_x"], "volume",
        inputs["heat_y"], engine=engine)
    laps.append(time.perf_counter() - start)
    start = time.perf_counter()
    out["explore"] = explore_batch(DOMAIN, base, inputs["grid"], engine=engine)
    laps.append(time.perf_counter() - start)
    start = time.perf_counter()
    out["tornado"] = tornado(comparator, inputs["tornado"], session.dists,
                             engine=engine)
    laps.append(time.perf_counter() - start)
    start = time.perf_counter()
    out["mc"] = monte_carlo_batch(comparator, base, session.dists,
                                  n_samples=MC_DRAWS, seed=inputs["mc_seed"],
                                  engine=engine)
    laps.append(time.perf_counter() - start)
    return out, laps


ROWS_PER_ROUND = (3 * SWEEP_POINTS + HEAT_SIDE * HEAT_SIDE + GRID_SIDE ** 3
                  + 11 + MC_DRAWS)
CALLS = ("num_apps", "lifetime", "volume", "heatmap", "explore", "tornado", "mc")


# ----------------------------------------------------------------------
# Checks (each returns a list of error strings; empty = pass)
# ----------------------------------------------------------------------


def check_cells(ratios, winners, ref_ratios, ref_winners) -> list[str]:
    """Sampled cells vs the scalar model: rtol 1e-12, identical winners."""
    errors = []
    for got, want, gw, ww in zip(ratios, ref_ratios, winners, ref_winners):
        if not abs(got - want) <= RTOL * abs(want):
            errors.append(f"ratio {got!r} != scalar {want!r}")
        if str(gw) != str(ww):
            errors.append(f"winner {gw} != scalar {ww}")
    return errors


def check_repeat(previous: dict, current: dict) -> list[str]:
    """Cells seen in the previous round must come back bit-identical."""
    return [
        f"cell {key} changed: {previous[key]!r} -> {value!r}"
        for key, value in current.items()
        if key in previous and np.float64(previous[key]).tobytes()
        != np.float64(value).tobytes()
    ][:3]


def check_monotone(ratios: np.ndarray, direction: int, label: str) -> list[str]:
    """Ratio must not move against ``direction`` along the last axis."""
    steps = np.diff(np.asarray(ratios), axis=-1) * direction
    bad = int(np.count_nonzero(steps < 0))
    return [f"{label}: ratio moves the wrong way at {bad} steps"] if bad else []


def _scalar_cells(session: Session, inputs: dict, out: dict, rng) -> dict:
    """Per call: (got ratios, got winners, scalar ratios, scalar winners)."""
    comparator, base = session.comparator, session.base
    appliers = {
        "num_apps": lambda v: base.with_num_apps(int(v)),
        "lifetime": lambda v: base.with_lifetime(float(v)),
        "volume": lambda v: base.with_volume(int(v)),
    }
    cells = {}
    for axis in ("num_apps", "lifetime", "volume"):
        idx = rng.choice(SWEEP_POINTS, SAMPLES, replace=False)
        refs = [comparator.compare(appliers[axis](inputs[axis][i])) for i in idx]
        cells[axis] = (out[axis].ratios[idx], out[axis].winners[idx],
                       [c.ratio for c in refs], [c.winner for c in refs])
    idx = rng.choice(HEAT_SIDE * HEAT_SIDE, SAMPLES, replace=False)
    refs = [
        comparator.compare(base.with_lifetime(float(inputs["heat_x"][i % HEAT_SIDE]))
                           .with_volume(int(inputs["heat_y"][i // HEAT_SIDE])))
        for i in idx
    ]
    flat = out["heatmap"].ratios.ravel()
    cells["heatmap"] = (flat[idx], ["fpga" if r < 1.0 else "asic" for r in flat[idx]],
                        [c.ratio for c in refs], [c.winner for c in refs])
    points = out["explore"].points
    idx = rng.choice(len(points), SAMPLES, replace=False)
    refs = [
        PlatformComparator.for_domain(
            DOMAIN,
            Parameters().with_overrides(**dict(points[i].overrides)).build_suite(),
        ).compare(base)
        for i in idx
    ]
    cells["explore"] = ([points[i].ratio for i in idx], [points[i].winner for i in idx],
                        [c.ratio for c in refs], [c.winner for c in refs])
    sens = out["tornado"]
    entry = sens.entries[int(rng.integers(len(sens.entries)))]
    dist = next(d for d in session.dists if d.name == entry.name)
    scenario = inputs["tornado"]
    refs = [comparator.compare(scenario),
            dist.apply(comparator, dist.low).compare(scenario),
            dist.apply(comparator, dist.high).compare(scenario)]
    got = [sens.baseline_ratio, entry.ratio_at_low, entry.ratio_at_high]
    cells["tornado"] = (got, ["fpga" if r < 1.0 else "asic" for r in got],
                        [c.ratio for c in refs],
                        ["fpga" if c.ratio < 1.0 else "asic" for c in refs])
    mc = out["mc"]
    idx = rng.choice(MC_DRAWS, SAMPLES, replace=False)
    refs = []
    for i in idx:
        perturbed = comparator
        for dist in session.dists:
            perturbed = dist.apply(perturbed, mc.samples[int(i)][dist.name])
        refs.append(perturbed.compare(base))
    cells["mc"] = (mc.ratios[idx], mc.winners[idx],
                   [c.ratio for c in refs], [c.winner for c in refs])
    return cells


def _repeat_keys(inputs: dict, out: dict) -> dict:
    """Call -> {input key: ratio} for the cells that can recur."""
    keys = {
        axis: dict(zip(inputs[axis].tolist(), out[axis].ratios.tolist()))
        for axis in ("num_apps", "lifetime", "volume")
    }
    xs, ys = inputs["heat_x"].tolist(), inputs["heat_y"].tolist()
    keys["heatmap"] = {
        (x, y): r
        for y, row in zip(ys, out["heatmap"].ratios.tolist())
        for x, r in zip(xs, row)
    }
    keys["explore"] = {
        tuple(sorted(p.overrides.items())): p.ratio for p in out["explore"].points
    }
    return keys


def check_round(session, inputs, out, previous, rng) -> dict[str, list[str]]:
    """Every check of one round, per call."""
    errors = {call: [] for call in CALLS}
    for call, args in _scalar_cells(session, inputs, out, rng).items():
        errors[call] += check_cells(*args)
    for call, current in _repeat_keys(inputs, out).items():
        errors[call] += check_repeat(previous.get(call, {}), current)
    errors["num_apps"] += check_monotone(out["num_apps"].ratios, -1, "num_apps")
    errors["lifetime"] += check_monotone(out["lifetime"].ratios, 1, "lifetime")
    errors["volume"] += check_monotone(out["volume"].ratios, 1, "volume")
    ratios = out["heatmap"].ratios
    errors["heatmap"] += check_monotone(ratios, 1, "heatmap lifetime")
    errors["heatmap"] += check_monotone(ratios.T, 1, "heatmap volume")
    return errors


def bite_tests(session, inputs, out, rng) -> list[str]:
    """Feed each check a nudged result; every check must object."""
    got, winners, ref, ref_winners = _scalar_cells(session, inputs, out, rng)["heatmap"]
    nudged = np.array(got, dtype=np.float64)
    nudged[0] *= 1.0 + 1e-9
    flipped = list(winners)
    flipped[0] = "asic" if flipped[0] == "fpga" else "fpga"
    current = _repeat_keys(inputs, out)["lifetime"]
    moved = dict(current)
    key = next(iter(moved))
    moved[key] = float(np.nextafter(moved[key], np.inf))
    lifetime = np.array(out["lifetime"].ratios, dtype=np.float64)
    mid = len(lifetime) // 2
    lifetime[mid] = lifetime[mid - 1] * (1.0 - 1e-9)
    cases = {
        "cells/ratio": check_cells(nudged, winners, ref, ref_winners),
        "cells/winner": check_cells(got, flipped, ref, ref_winners),
        "repeat": check_repeat(current, moved),
        "monotone": check_monotone(lifetime, 1, "lifetime"),
    }
    return [f"check {name} did not bite" for name, errs in cases.items()
            if not errs]


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------


def _child_setup() -> float:
    """Wall time of one fresh interpreter through comparator + suite build."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE],
                          capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            "set-up child failed: " + proc.stderr.decode(errors="replace")[-400:])
    return elapsed


def _session_loop(session, engine, result, seconds, on_round=None):
    """Rounds until ``seconds`` pass; checks every round outside the timing."""
    previous: dict = {}
    walls = []
    deadline = time.perf_counter() + seconds
    r = 0
    while time.perf_counter() < deadline:
        inputs = session.inputs(r)
        if on_round is not None:
            on_round(r, True)
        try:
            out, laps = run_round(session, inputs, engine)
        finally:
            if on_round is not None:
                on_round(r, False)
        walls.append(sum(laps))
        rng = np.random.default_rng(derive_seed(session.seed, "check", r))
        for call, errors in check_round(session, inputs, out, previous, rng).items():
            if errors:
                result.fail(f"round {r} {call}: " + "; ".join(errors))
        if r == 0:
            result.errors += bite_tests(session, inputs, out, rng)
        previous = _repeat_keys(inputs, out)
        r += 1
    result.attempted += len(CALLS) * len(walls)
    return walls


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    session = Session(seed)
    result.detail["rows_per_round"] = ROWS_PER_ROUND
    if trace:
        return _run_traced(result, session, seed, seconds)

    setups = [_child_setup() for _ in range(SETUP_REPEATS)]
    with EvaluationEngine() as engine:
        # Untimed warm-up round on a throwaway session position.
        run_round(session, session.inputs(-1), engine)
        engine.clear_cache()
        with PeakRssSampler(interval_s=0.1) as rss:
            walls = _session_loop(session, engine, result, seconds)

    result.metric("setup_s", median(setups), "s")
    result.metric("scenarios_per_s", ROWS_PER_ROUND * len(walls) / sum(walls), "1/s")
    result.metric("latency_ms", median(walls) * 1e3, "ms")
    result.metric("latency_p95_ms", percentile(walls, 95) * 1e3, "ms")
    result.metric("peak_rss_mb", rss.peak_mb, "MiB")
    result.detail["rounds"] = len(walls)
    result.detail["setup_s_all"] = [round(s, 4) for s in setups]
    return result


def _run_traced(result, session, seed, seconds):
    """Alternate traced and untraced rounds of one session."""
    tracer = Tracer()
    traced_ops: set[int] = set()
    stats = {"hits": 0, "misses": 0}

    def on_round(r, starting):
        if r % 2 == 0:
            return
        counters = engine.cache_stats
        sign = -1 if starting else 1
        stats["hits"] += sign * counters.hits
        stats["misses"] += sign * counters.misses
        if starting:
            layers.install(tracer)
            tracer.begin_op(r)
            traced_ops.add(r)
        else:
            tracer.restore()

    with EvaluationEngine() as engine:
        run_round(session, session.inputs(-1), engine)
        engine.clear_cache()
        try:
            walls = _session_loop(session, engine, result, seconds, on_round)
        finally:
            tracer.restore()
    traced = [walls[r] for r in sorted(traced_ops)]
    plain = [w for r, w in enumerate(walls) if r not in traced_ops]
    covered = layers.self_time_metrics(tracer, result, traced_ops, len(traced))
    lookups = stats["hits"] + stats["misses"]
    result.metric("store.hit_ratio", stats["hits"] / max(1, lookups), "ratio")
    result.metric("analysis.rows", ROWS_PER_ROUND, "count")
    result.metric("trace.layer_share", covered / sum(traced), "ratio")
    result.metric("trace.overhead_ms", (median(traced) - median(plain)) * 1e3, "ms")
    result.detail["spans"] = len(tracer.spans)
    tracer.write(OUT_DIR / f"trace-analysis_session-seed{seed}.json")
    return result
