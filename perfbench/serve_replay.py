"""Workload ``serve_replay``: the serving tier's request path, in process.

One operation is one 50-cell DNN request taken through every step a
served request takes, in this process: the client's
``protocol.encode_request``, the server's ``protocol.decode_request``,
the worker's ``evaluate_job`` on an engine pre-warmed from the ``.npz``
cache file, the server's ``protocol.encode_response`` and the client's
``protocol.decode_response``.  Requests come from a seeded plan of
:data:`PLAN` requests: 80% are picks from a :data:`HOT_SET`-request hot
set (exactly what the ``.npz`` holds), 20% are novel (random lifetime
and volume).  Each round resets the store to the ``.npz`` contents
(untimed) and replays the whole plan, so every round's novel requests
miss the store and every hot pick hits it.

``setup_s`` is a real :class:`~repro.engine.serve.BatchServer` launch
(one worker process, pre-warmed from the same ``.npz``) up to its
first reply over a socket.  The steady phase leaves the supervisor
pipe, the admission queue and the event loop out: each of them is one
more process wake-up per request, and on a shared 2-core machine their
latency followed how much CPU the hypervisor took, not the program.
The traced run times them on a live server instead.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path

import numpy as np

from repro.core.comparison import PlatformComparator
from repro.engine import EvaluationEngine, PeakRssSampler, ScenarioBatch
from repro.engine.serve import BatchServer, protocol
from repro.engine.serve.supervisor import WorkerSupervisor
from repro.engine.serve.worker import evaluate_job

from common import (
    OUT_DIR, Result, Tracer, derive_seed, median, percentile,
)
import layers

DOMAIN = "dnn"
CELLS = 50
HOT_SET = 64
HOT_SHARE = 0.8
#: Requests per round (whole rounds only, so ``attempted`` is a multiple).
PLAN = 500
#: Store capacity of the replay engine, as a ``BatchServer`` worker has.
CACHE_SIZE = 65536
#: Fresh server launches per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Traced run: requests sent one at a time to the last launched server.
SOCKET_REQUESTS = 200
#: Span op id of the traced socket phase (replay requests use 0, 1, ...).
SOCKET_OP = -2
REPLY_TIMEOUT_S = 60.0
COLUMNS = ("num_apps", "volume", "lifetime", "evaluation_years",
           "app_size_mgates", "enforce_chip_lifetime")


class Traffic:
    """Seeded requests: a hot set and a plan of hot picks and novel ones."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(derive_seed(seed, "traffic"))
        self.num_apps = np.arange(2, 2 + CELLS, dtype=np.int64)
        self.hot = [self._novel() for _ in range(HOT_SET)]

    def _novel(self) -> ScenarioBatch:
        lifetime = float(np.round(self.rng.uniform(0.25, 7.5), 6))
        volume = int(np.round(np.exp(self.rng.uniform(np.log(1e3), np.log(1e8)))))
        return ScenarioBatch.from_arrays(num_apps=self.num_apps,
                                         lifetime=lifetime, volume=volume)

    def plan(self, n: int) -> list:
        """``n`` requests in seeded order, exactly ``HOT_SHARE`` of them hot.

        Entries are (batch, hot-set index, or -1 when novel).
        """
        n_hot = int(round(HOT_SHARE * n))
        out = [(self.hot[k], k) for k in self.rng.integers(HOT_SET, size=n_hot)]
        out += [(self._novel(), -1) for _ in range(n - n_hot)]
        return [out[i] for i in self.rng.permutation(n)]


def _columns(result) -> tuple:
    """A served-or-reference result as the four wire columns."""
    return (
        np.asarray(result.ratios, dtype="<f8"),
        (np.asarray(result.winners) == "asic").astype(np.uint8),
        np.asarray(result.fpga_totals, dtype="<f8"),
        np.asarray(result.asic_totals, dtype="<f8"),
    )


def check_response(columns, reference) -> list[str]:
    """A served response must equal the reference columns bit for bit."""
    names = ("ratios", "winners", "fpga_totals", "asic_totals")
    return [f"{name} differ" for name, got, want in zip(names, columns, reference)
            if np.asarray(got).tobytes() != np.asarray(want).tobytes()]


def bite_tests(reference) -> list[str]:
    ratios, winners, fpga, asic = (np.array(c) for c in reference)
    nudged = ratios.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    flipped = winners.copy()
    flipped[0] ^= 1
    cases = {
        "response/ratio": check_response((nudged, winners, fpga, asic), reference),
        "response/winner": check_response((ratios, flipped, fpga, asic), reference),
    }
    return [f"check {name} did not bite" for name, errs in cases.items()
            if not errs]


def _prepare(seed: int, cache: Path):
    """Traffic, the round plan, reference columns and the warmed ``.npz``.

    Plan entries are ``(batch, key)``: key ``k >= 0`` is hot-set entry
    ``k``, key ``-j`` the ``j``-th novel request.
    """
    traffic = Traffic(seed)
    comparator = PlatformComparator.for_domain(DOMAIN)
    with EvaluationEngine(cache_size=CACHE_SIZE) as warm:
        for batch in traffic.hot:
            warm.evaluate_batch(comparator, batch)
        warm.save_cache(cache)
    plan = traffic.plan(PLAN)
    # Reference columns from a separate engine with no store: the
    # replayed columns went through store packing and gathers, these
    # did not.
    refs: dict[int, tuple] = {}
    with EvaluationEngine(cache_size=0) as ref_engine:
        for k, batch in enumerate(traffic.hot):
            refs[k] = _columns(ref_engine.evaluate_batch(comparator, batch))
        for i, (batch, k) in enumerate(plan):
            if k < 0:
                k = -len(refs)
                refs[k] = _columns(ref_engine.evaluate_batch(comparator, batch))
                plan[i] = (batch, k)
    return traffic, plan, refs


class Replayer:
    """A worker's engine plus the codec steps around each request."""

    def __init__(self, cache: Path) -> None:
        self.cache = cache
        self.engine = EvaluationEngine(cache_size=CACHE_SIZE)
        self.comparators = {DOMAIN: PlatformComparator.for_domain(DOMAIN)}

    def reset(self) -> None:
        """Back to the freshly pre-warmed store."""
        self.engine.clear_cache()
        self.engine.load_cache(self.cache)

    def request(self, request_id: int, batch) -> tuple:
        """One request end to end: (reply kind, columns, evaluate_job seconds)."""
        frame = protocol.encode_request(request_id, DOMAIN, batch)
        domain, decoded = protocol.decode_request(frame[protocol.HEADER_SIZE:])
        columns = {name: getattr(decoded, name) for name in COLUMNS}
        start = time.perf_counter()
        reply = evaluate_job(self.engine, self.comparators, domain, columns, None)
        job_s = time.perf_counter() - start
        if reply[0] != "ok":
            return reply[0], None, job_s
        data = protocol.encode_response(request_id, *reply[1:])
        return "ok", protocol.decode_response(data[protocol.HEADER_SIZE:]), job_s

    def close(self) -> None:
        self.engine.close()


def _round(replayer: Replayer, plan, refs, result, tracer=None) -> dict:
    """The whole plan once on a reset store; checks after the timing."""
    if tracer is not None:
        tracer.begin_op(-1)  # the reset is no request's work
    replayer.reset()
    before = replayer.engine.cache_stats
    walls, jobs, replies = [], [], []
    for i, (batch, _) in enumerate(plan):
        if tracer is not None:
            tracer.begin_op(i)
        start = time.perf_counter()
        reply = replayer.request(i, batch)
        walls.append(time.perf_counter() - start)
        jobs.append(reply[2])
        replies.append(reply)
    after = replayer.engine.cache_stats
    result.attempted += len(plan)
    for i, ((kind, columns, _), (_, key)) in enumerate(zip(replies, plan)):
        errors = (check_response(columns, refs[key]) if kind == "ok"
                  else [f"reply {kind}"])
        if errors:
            result.fail(f"request {i}: " + "; ".join(errors))
    return {"walls": walls, "jobs": jobs,
            "hits": after.hits - before.hits,
            "lookups": after.hits + after.misses - before.hits - before.misses}


# ----------------------------------------------------------------------
# A live server: set-up time and the traced socket phase
# ----------------------------------------------------------------------


async def _exchange(reader, writer, request_id: int, batch):
    writer.write(protocol.encode_request(request_id, DOMAIN, batch))
    await writer.drain()
    # Bounded, so a server that never answers ends the run with an error.
    frame = await asyncio.wait_for(protocol.read_frame(reader), REPLY_TIMEOUT_S)
    if frame is None:
        raise ConnectionError("server closed the connection")
    return frame


def _check_frame(frame, reference, result, label: str) -> None:
    result.attempted += 1
    errors = (check_response(protocol.decode_response(frame.payload), reference)
              if frame.type == protocol.MSG_RESPONSE
              else [f"frame type {frame.type}"])
    if errors:
        result.fail(f"{label}: " + "; ".join(errors))


async def _launches(cache: Path, traffic, refs, result, tracer=None,
                    plan=None) -> dict:
    """``SETUP_REPEATS`` server launches, each timed to its first reply.

    With a ``tracer``, the last server then answers ``SOCKET_REQUESTS``
    plan requests one at a time while the codec and
    ``WorkerSupervisor.submit`` are traced.
    """
    setups, starts, stats, latency = [], [], [], []
    for repeat in range(SETUP_REPEATS):
        launched = time.perf_counter()
        server = BatchServer(workers=1, cache_file=str(cache),
                             preload_domains=(DOMAIN,))
        try:
            await server.start()
            starts.append(time.perf_counter() - launched)
            reader, writer = await asyncio.open_connection(*server.address)
            try:
                frame = await _exchange(reader, writer, 0, traffic.hot[0])
                setups.append(time.perf_counter() - launched)
                _check_frame(frame, refs[0], result, f"launch {repeat}")
                if tracer is not None and repeat == SETUP_REPEATS - 1:
                    layers.install(tracer)
                    tracer.wrap_async(WorkerSupervisor, "submit",
                                      "supervisor.submit")
                    tracer.begin_op(SOCKET_OP)
                    try:
                        for i, (batch, key) in enumerate(plan[:SOCKET_REQUESTS]):
                            start = time.perf_counter()
                            frame = await _exchange(reader, writer, 1 + i, batch)
                            latency.append(time.perf_counter() - start)
                            _check_frame(frame, refs[key], result, f"socket {i}")
                    finally:
                        tracer.restore()
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass
        finally:
            await server.stop()
        stats.append(server.stats.as_dict())
    return {"setups": setups, "starts": starts, "stats": stats,
            "latency": latency}


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    cache = OUT_DIR / f"serve-{os.getpid()}.npz"
    try:
        traffic, plan, refs = _prepare(seed, cache)
        result.errors += bite_tests(refs[0])
        result.detail["plan"] = {"requests": PLAN,
                                 "novel": sum(1 for _, k in plan if k < 0)}
        if trace:
            _run_traced(result, seed, seconds, cache, traffic, plan, refs)
            return result
        launched = asyncio.run(_launches(cache, traffic, refs, result))
        replayer = Replayer(cache)
        try:
            _round(replayer, plan, refs, Result())  # untimed warm-up
            rounds = []
            with PeakRssSampler(interval_s=0.1) as rss:
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    rounds.append(_round(replayer, plan, refs, result))
        finally:
            replayer.close()
    finally:
        cache.unlink(missing_ok=True)

    walls = [w for r in rounds for w in r["walls"]]
    result.metric("setup_s", median(launched["setups"]), "s")
    # Median round: a request preempted by the host stretches the mean
    # of a run of millisecond requests far more than it moves a median.
    result.metric("scenarios_per_s",
                  median([CELLS * PLAN / sum(r["walls"]) for r in rounds]), "1/s")
    result.metric("latency_ms", median(walls) * 1e3, "ms")
    result.metric("latency_p95_ms", percentile(walls, 95) * 1e3, "ms")
    result.metric("peak_rss_mb", rss.peak_mb, "MiB")
    result.detail.update({
        "rounds": len(rounds),
        "latency_p99_ms": round(percentile(walls, 99) * 1e3, 4),
        "setup_s_all": [round(s, 4) for s in launched["setups"]],
        "server_start_s_all": [round(s, 4) for s in launched["starts"]],
    })
    return result


def _run_traced(result, seed, seconds, cache, traffic, plan, refs) -> None:
    """Launches and a traced socket phase, then alternating replay rounds."""
    tracer = Tracer()
    launched = asyncio.run(_launches(cache, traffic, refs, result, tracer, plan))

    replayer = Replayer(cache)
    plain, traced = [], []
    try:
        _round(replayer, plan, refs, Result())  # untimed warm-up
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not traced:
            plain.append(_round(replayer, plan, refs, result))
            layers.install(tracer)
            try:
                traced.append(_round(replayer, plan, refs, result, tracer))
            finally:
                tracer.restore()
    finally:
        replayer.close()

    n = len(traced) * PLAN
    layers.self_time_metrics(tracer, result, set(range(PLAN)), n)
    hot = [t for r in plain for t, (_, k) in zip(r["jobs"], plan) if k >= 0]
    cold = [t for r in plain for t, (_, k) in zip(r["jobs"], plan) if k < 0]
    traced_walls = [w for r in traced for w in r["walls"]]
    plain_walls = [w for r in plain for w in r["walls"]]
    codec = sum(tracer.self_seconds(set(range(PLAN))).get(span, 0.0)
                for span in layers.CODEC_SPANS)
    jobs = sum(t for r in traced for t in r["jobs"])
    result.metric("store.hit_ratio", sum(r["hits"] for r in traced)
                  / sum(r["lookups"] for r in traced), "ratio")
    result.metric("worker.evaluate_job_hot_ms", median(hot) * 1e3, "ms")
    result.metric("worker.evaluate_job_cold_ms", median(cold) * 1e3, "ms")
    result.metric("trace.layer_share", (codec + jobs) / sum(traced_walls), "ratio")
    result.metric("trace.overhead_ms",
                  (median(traced_walls) - median(plain_walls)) * 1e3, "ms")

    socket = tracer.self_seconds({SOCKET_OP})
    sent = len(launched["latency"])
    submit = socket.get("supervisor.submit", 0.0) / sent
    # The reply is decoded for its check after the timed exchange, so
    # decode_response is not part of the socket latency.
    socket_codec = sum(socket.get(span, 0.0) for span in layers.CODEC_SPANS
                       if span != "protocol.decode_response") / sent
    result.metric("supervisor.submit_ms", submit * 1e3, "ms")
    result.metric("server.overhead_ms",
                  (sum(launched["latency"]) / sent - submit - socket_codec) * 1e3,
                  "ms")
    result.metric("server.start_s", median(launched["starts"]), "s")
    result.metric("server.first_reply_s", median(launched["setups"]), "s")
    stats = launched["stats"]
    result.metric("server.requests_shed", sum(
        s["shed_queue_full"] + s["shed_over_deadline"] for s in stats), "count")
    result.metric("server.replays", sum(s["replays"] for s in stats), "count")
    result.detail.update({
        "traced_rounds": len(traced),
        "socket_requests": sent,
        "socket_p50_ms": round(median(launched["latency"]) * 1e3, 4),
        "spans": len(tracer.spans),
    })
    tracer.write(OUT_DIR / f"trace-serve_replay-seed{seed}.json")
