"""Workload ``mc_stream``: repeated streamed Table 1 uncertainty studies.

Each operation is one :func:`repro.analysis.monte_carlo_stream` study
over the five ``ext_uncertainty.distributions()`` knobs on the DNN
comparator at the paper baseline, :data:`STUDY_DRAWS` draws, one stream
worker per core on the default kernel tier, with a distinct derived
seed per study.  Nearly all of its time is sampling, the fused kernel,
the reducers and span dispatch/merge; it bypasses the result store,
the chain evaluator and the serving tier.
"""

from __future__ import annotations

import math
import pickle
import time

import numpy as np

from repro.analysis import (
    monte_carlo, monte_carlo_reduction, monte_carlo_stream,
)
from repro.core.comparison import PlatformComparator
from repro.engine import (
    DEFAULT_STREAM_CHUNK_ROWS, MAX_STREAM_WORKERS, EvaluationEngine,
    MonteCarloChunkSource, PeakRssSampler,
)
from repro.engine.vector import extract_row
from repro.experiments import ext_uncertainty

from common import (
    OUT_DIR, Result, Tracer, derive_seed, median, nproc, percentile,
)
import layers

#: Draws per timed study (16 default-size chunks).
STUDY_DRAWS = 1 << 21
#: Draws of the set-up study: one chunk per worker, so every worker
#: process is started and runs its first chunk.
SETUP_DRAWS = 2 * 131_072
#: Fresh set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Draws of the scalar-reference prefix study.
PREFIX_DRAWS = 256


def _study_inputs():
    return (
        PlatformComparator.for_domain("dnn"),
        ext_uncertainty.BASELINE,
        ext_uncertainty.distributions(),
    )


# ----------------------------------------------------------------------
# Checks (each returns a list of error strings; empty = pass)
# ----------------------------------------------------------------------


def check_prefix(scalar_ratios, scalar_winners, streamed) -> list[str]:
    """Streamed summary vs the scalar reference over the same draws."""
    errors = []
    wins = int(np.count_nonzero(np.asarray(scalar_winners) == "fpga"))
    if wins != streamed.fpga_wins:
        errors.append(f"prefix win count {streamed.fpga_wins} != scalar {wins}")
    ratios = np.asarray(scalar_ratios, dtype=np.float64)
    finite = ratios[np.isfinite(ratios)]
    mean = float(np.mean(finite))
    if not abs(streamed.ratio_mean - mean) <= 1e-9 * abs(mean):
        errors.append(f"prefix mean {streamed.ratio_mean!r} != scalar {mean!r}")
    if streamed.n_samples != ratios.size:
        errors.append(f"prefix draw count {streamed.n_samples} != {ratios.size}")
    return errors


_SUMMARY_FIELDS = ("n_samples", "n_finite", "fpga_wins", "ratio_mean",
                   "ratio_var", "ratio_min", "ratio_max", "quantile_exact",
                   "quantile_k")


def check_bitwise(multi, single) -> list[str]:
    """A multi-worker summary must equal the 1-worker one bit for bit."""
    errors = [
        f"{field}: {getattr(multi, field)!r} != {getattr(single, field)!r}"
        for field in _SUMMARY_FIELDS
        if np.asarray(getattr(multi, field)).tobytes()
        != np.asarray(getattr(single, field)).tobytes()
    ]
    if multi.quantile_sample.tobytes() != single.quantile_sample.tobytes():
        errors.append("quantile sketch differs between worker counts")
    return errors


def check_draws(summary, n: int) -> list[str]:
    if summary.n_samples != n:
        return [f"study drew {summary.n_samples} rows, expected {n}"]
    return []


def bite_tests(prefix_args, multi, single) -> list[str]:
    """Feed each check a nudged result; every check must object."""
    import dataclasses

    ratios, winners, streamed = prefix_args
    nudged = np.array(ratios, dtype=np.float64)
    nudged[len(nudged) // 2] *= 1.0 + 1e-6
    flipped = np.array(winners)
    flipped[0] = "asic" if flipped[0] == "fpga" else "fpga"
    cases = {
        "prefix/ratio": check_prefix(nudged, winners, streamed),
        "prefix/winner": check_prefix(ratios, flipped, streamed),
        "bitwise/mean": check_bitwise(
            dataclasses.replace(
                multi, ratio_mean=float(np.nextafter(multi.ratio_mean, np.inf))
            ),
            single,
        ),
        "bitwise/wins": check_bitwise(
            dataclasses.replace(multi, fpga_wins=multi.fpga_wins + 1), single
        ),
        "draws": check_draws(multi, multi.n_samples + 1),
    }
    return [f"check {name} did not bite" for name, errs in cases.items()
            if not errs]


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------


def _fresh_setup(comparator, scenario, dists, workers, seed):
    """Fresh engine + spawn-pool start + first chunk per worker, timed."""
    start = time.perf_counter()
    engine = EvaluationEngine()
    monte_carlo_stream(comparator, scenario, dists, n_samples=SETUP_DRAWS,
                       seed=seed, engine=engine, workers=workers)
    return time.perf_counter() - start, engine


def _per_run_checks(result, engine, comparator, scenario, dists, workers, seed):
    """Scalar-reference prefix and worker-count bit-identity checks."""
    prefix_seed = derive_seed(seed, "prefix")
    with EvaluationEngine(cache_size=0, vectorize=False) as scalar_engine:
        scalar = monte_carlo(comparator, scenario, dists,
                             n_samples=PREFIX_DRAWS, seed=prefix_seed,
                             engine=scalar_engine)
    streamed = monte_carlo_stream(comparator, scenario, dists,
                                  n_samples=PREFIX_DRAWS, seed=prefix_seed,
                                  engine=engine, workers=workers)
    check_seed = derive_seed(seed, "bitwise")
    multi = monte_carlo_stream(comparator, scenario, dists,
                               n_samples=STUDY_DRAWS, seed=check_seed,
                               engine=engine, workers=workers)
    single = monte_carlo_stream(comparator, scenario, dists,
                                n_samples=STUDY_DRAWS, seed=check_seed,
                                engine=engine, workers=1)
    result.attempted += 2
    for errors in (check_prefix(scalar.ratios, scalar.winners, streamed),
                   check_bitwise(multi, single) + check_draws(multi, STUDY_DRAWS)):
        if errors:
            result.fail("; ".join(errors))
    for message in bite_tests((scalar.ratios, scalar.winners, streamed),
                              multi, single):
        result.errors.append(message)


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    comparator, scenario, dists = _study_inputs()
    workers = min(nproc(), MAX_STREAM_WORKERS)
    result.detail["workers"] = workers
    result.detail["study_draws"] = STUDY_DRAWS

    if trace:
        return _run_traced(result, comparator, scenario, dists, workers,
                           seed, seconds)

    setups = []
    engine = None
    for k in range(SETUP_REPEATS):
        if engine is not None:
            engine.close()
        elapsed, engine = _fresh_setup(comparator, scenario, dists, workers,
                                       derive_seed(seed, "setup", k))
        setups.append(elapsed)
    try:
        _per_run_checks(result, engine, comparator, scenario, dists,
                        workers, seed)
        walls = []
        with PeakRssSampler(interval_s=0.1) as rss:
            deadline = time.perf_counter() + seconds
            i = 0
            while time.perf_counter() < deadline:
                study_seed = derive_seed(seed, "study", i)
                start = time.perf_counter()
                summary = monte_carlo_stream(
                    comparator, scenario, dists, n_samples=STUDY_DRAWS,
                    seed=study_seed, engine=engine, workers=workers,
                )
                walls.append(time.perf_counter() - start)
                errors = check_draws(summary, STUDY_DRAWS)
                if errors:
                    result.fail(errors[0])
                i += 1
        result.attempted += len(walls)
    finally:
        engine.close()

    result.metric("setup_s", median(setups), "s")
    result.metric("scenarios_per_s", STUDY_DRAWS * len(walls) / sum(walls), "1/s")
    result.metric("latency_ms", median(walls) * 1e3, "ms")
    result.metric("latency_p95_ms", percentile(walls, 95) * 1e3, "ms")
    result.metric("peak_rss_mb", rss.peak_mb, "MiB")
    result.detail["studies"] = len(walls)
    result.detail["setup_s_all"] = [round(s, 4) for s in setups]
    return result


class _SpanSource:
    """Rows ``[start, stop)`` of a chunk source, as a source of its own."""

    def __init__(self, source, start: int, stop: int) -> None:
        self.source, self.start, self.n = source, start, stop - start

    def chunk(self, a: int, b: int):
        return self.source.chunk(self.start + a, self.start + b)


def _worker_spans(n: int, chunk: int, workers: int) -> list[tuple[int, int]]:
    """The contiguous chunk-aligned span per worker that a stream uses."""
    n_chunks = math.ceil(n / chunk)
    workers = max(1, min(workers, n_chunks))
    base, extra = divmod(n_chunks, workers)
    spans, first = [], 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        spans.append((first * chunk, min((first + count) * chunk, n)))
        first += count
    return spans


def _run_traced(result, comparator, scenario, dists, workers, seed, seconds):
    """Per-layer split: in-process chunk-by-chunk replay plus pool figures."""

    def study(engine, study_seed, n=STUDY_DRAWS, w=workers):
        start = time.perf_counter()
        monte_carlo_stream(comparator, scenario, dists, n_samples=n,
                           seed=study_seed, engine=engine, workers=w)
        return time.perf_counter() - start

    tracer = Tracer()
    engine = EvaluationEngine()
    try:
        # Spawn-pool start: first pooled study on a fresh engine minus
        # the same study warm.
        first = study(engine, derive_seed(seed, "setup", 0), SETUP_DRAWS)
        warm = [study(engine, derive_seed(seed, "setup", 0), SETUP_DRAWS)
                for _ in range(3)]
        result.metric("engine.pool_spawn_s", first - median(warm), "s")
        _per_run_checks(result, engine, comparator, scenario, dists,
                        workers, seed)

        # Pooled studies: wall time and the parent-side merge.
        layers.install(tracer)
        pooled, op = [], 0
        deadline = time.perf_counter() + 0.4 * seconds
        while time.perf_counter() < deadline:
            tracer.begin_op(op)
            pooled.append(study(engine, derive_seed(seed, "study", op)))
            op += 1
        pooled_ops = set(range(op))
        merge = tracer.self_seconds(pooled_ops).get("reducers.merge", 0.0)
        tracer.restore()

        # The busiest span's busy time, replayed in-process untraced.
        chunk = DEFAULT_STREAM_CHUNK_ROWS
        span_seed = derive_seed(seed, "study", 0)
        source = MonteCarloChunkSource(
            np.asarray(extract_row(comparator), dtype=np.float64),
            tuple(dists), span_seed, scenario, STUDY_DRAWS,
        )
        busy, partials = [], []
        for start, stop in _worker_spans(STUDY_DRAWS, chunk, workers):
            laps = []
            for _ in range(3):
                lap = time.perf_counter()
                partial = engine.reduce_stream(
                    _SpanSource(source, start, stop),
                    monte_carlo_reduction(seed=span_seed), workers=1,
                )
                laps.append(time.perf_counter() - lap)
            busy.append(median(laps))
            partials.append(partial)
        result.metric("streaming.dispatch_s", median(pooled) - max(busy), "s")
        result.metric("streaming.partial_bytes",
                      len(pickle.dumps(partials[0], protocol=pickle.HIGHEST_PROTOCOL)),
                      "bytes")

        # In-process chunk-by-chunk replay, alternating untraced and
        # traced laps over the same seeds for the tracing overhead.
        plain, traced, traced_ops = [], [], set()
        deadline = time.perf_counter() + 0.6 * seconds
        lap_index = 0
        while time.perf_counter() < deadline or not traced:
            study_seed = derive_seed(seed, "replay", lap_index)
            plain.append(study(engine, study_seed, w=1))
            layers.install(tracer)
            tracer.begin_op(op)
            traced.append(study(engine, study_seed, w=1))
            tracer.restore()
            traced_ops.add(op)
            op += 1
            lap_index += 1
    finally:
        tracer.restore()
        engine.close()

    result.attempted += len(pooled) + len(plain) + len(traced)
    covered = layers.self_time_metrics(tracer, result, traced_ops,
                                       len(traced))
    # In-process replays never merge; keep the pooled studies' figure.
    result.metric("reducers.merge_s", merge / len(pooled), "s")
    chunks = sum(1 for record in tracer.spans
                 if record[0] == "streaming.chunk" and record[4] in traced_ops)
    result.metric("streaming.chunks", chunks / len(traced), "count")
    result.metric("trace.layer_share", covered / sum(traced), "ratio")
    result.metric("trace.overhead_ms", (median(traced) - median(plain)) * 1e3, "ms")
    result.detail["spans"] = len(tracer.spans)
    tracer.write(OUT_DIR / f"trace-mc_stream-seed{seed}.json")
    return result
