"""The program's layers as the traced run sees them.

:func:`install` wraps the public functions of each layer's module with
:class:`~common.Tracer` spans.  Every traced workload installs the
same set, so a layer a workload never calls reads a *measured* zero —
the trace itself shows, for example, that ``mc_stream`` never touches
the result store.

:data:`PER_LAYER` is the full list of per-layer metrics (name -> unit)
a traced run prints; it must match ``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

#: Span name -> (module path, owner attribute or None, attribute).
#: ``owner`` None means a module-level function.  The digest helpers
#: are patched in ``repro.engine.engine``'s namespace, which is where
#: the engine looks them up.
SPANS = (
    ("streaming.chunk", "repro.engine.vector.streaming", "MonteCarloChunkSource", "chunk"),
    ("fused.reduce_batch", "repro.engine.vector.evaluator", "VectorizedEvaluator", "reduce_batch"),
    ("reducers.update", "repro.engine.vector.reducers", "StreamingReduction", "update"),
    ("reducers.merge", "repro.engine.vector.reducers", "StreamingReduction", "merge"),
    ("store.digest", "repro.engine.engine", None, "batch_digests"),
    ("store.digest", "repro.engine.engine", None, "param_batch_digests"),
    ("store.digest", "repro.engine.engine", None, "pair_digest"),
    ("store.digest", "repro.engine.engine", None, "comparator_digest"),
    ("store.get_batch", "repro.engine.store", "ShardedResultStore", "get_batch"),
    ("store.put_batch", "repro.engine.store", "ShardedResultStore", "put_batch"),
    ("engine.evaluate_batch", "repro.engine.engine", "EvaluationEngine", "evaluate_batch"),
    ("vector.evaluate_batch", "repro.engine.vector.evaluator", "VectorizedEvaluator", "evaluate_batch"),
    ("vector.evaluate_param_batch", "repro.engine.vector.evaluator", "VectorizedEvaluator", "evaluate_param_batch"),
    ("params.from_comparators", "repro.engine.vector.params", "ParameterBatch", "from_comparators"),
    ("engine.build_suite", "repro.engine.engine", "EvaluationEngine", "suite_for"),
    ("protocol.encode_request", "repro.engine.serve.protocol", None, "encode_request"),
    ("protocol.decode_request", "repro.engine.serve.protocol", None, "decode_request"),
    ("protocol.encode_response", "repro.engine.serve.protocol", None, "encode_response"),
    ("protocol.decode_response", "repro.engine.serve.protocol", None, "decode_response"),
)

#: The wire codec's spans (client and server sides).
CODEC_SPANS = (
    "protocol.encode_request", "protocol.decode_request",
    "protocol.encode_response", "protocol.decode_response",
)

#: Per-layer metric -> unit, in report order.
PER_LAYER = {
    # mc_stream
    "streaming.chunk_s": "s",
    "fused.reduce_batch_s": "s",
    "reducers.update_s": "s",
    "reducers.merge_s": "s",
    "streaming.partial_bytes": "bytes",
    "streaming.dispatch_s": "s",
    "engine.pool_spawn_s": "s",
    "streaming.chunks": "count",
    # analysis_session
    "store.digest_s": "s",
    "store.get_batch_s": "s",
    "store.put_batch_s": "s",
    "store.hit_ratio": "ratio",
    "engine.evaluate_batch.self_s": "s",
    "vector.evaluate_batch_s": "s",
    "vector.evaluate_param_batch_s": "s",
    "params.from_comparators_s": "s",
    "engine.build_suite_s": "s",
    "analysis.rows": "count",
    # serve_replay
    "protocol.encode_request_us": "us",
    "protocol.decode_request_us": "us",
    "protocol.encode_response_us": "us",
    "protocol.decode_response_us": "us",
    "worker.evaluate_job_hot_ms": "ms",
    "worker.evaluate_job_cold_ms": "ms",
    "supervisor.submit_ms": "ms",
    "server.overhead_ms": "ms",
    "server.start_s": "s",
    "server.first_reply_s": "s",
    "server.requests_shed": "count",
    "server.replays": "count",
    # every workload
    "trace.layer_share": "ratio",
    "trace.overhead_ms": "ms",
}

#: Span name -> (per-layer metric, scale, unit): the span's self time
#: per operation, in seconds times ``scale``.
SELF_TIME_METRICS = {
    "streaming.chunk": ("streaming.chunk_s", 1.0, "s"),
    "fused.reduce_batch": ("fused.reduce_batch_s", 1.0, "s"),
    "reducers.update": ("reducers.update_s", 1.0, "s"),
    "reducers.merge": ("reducers.merge_s", 1.0, "s"),
    "store.digest": ("store.digest_s", 1.0, "s"),
    "store.get_batch": ("store.get_batch_s", 1.0, "s"),
    "store.put_batch": ("store.put_batch_s", 1.0, "s"),
    "engine.evaluate_batch": ("engine.evaluate_batch.self_s", 1.0, "s"),
    "vector.evaluate_batch": ("vector.evaluate_batch_s", 1.0, "s"),
    "vector.evaluate_param_batch": ("vector.evaluate_param_batch_s", 1.0, "s"),
    "params.from_comparators": ("params.from_comparators_s", 1.0, "s"),
    "engine.build_suite": ("engine.build_suite_s", 1.0, "s"),
    "protocol.encode_request": ("protocol.encode_request_us", 1e6, "us"),
    "protocol.decode_request": ("protocol.decode_request_us", 1e6, "us"),
    "protocol.encode_response": ("protocol.encode_response_us", 1e6, "us"),
    "protocol.decode_response": ("protocol.decode_response_us", 1e6, "us"),
}


def install(tracer) -> None:
    """Wrap every layer function in :data:`SPANS` with ``tracer``."""
    import importlib

    for name, module_path, owner_name, attr in SPANS:
        module = importlib.import_module(module_path)
        owner = module if owner_name is None else getattr(module, owner_name)
        tracer.wrap(owner, attr, name)


def self_time_metrics(tracer, result, ops: "set[int]", per: int) -> float:
    """Report each wrapped layer's self time per operation.

    Returns the summed self time of all wrapped layers (seconds, over
    ``ops``), the numerator of ``trace.layer_share``.
    """
    totals = tracer.self_seconds(ops)
    covered = 0.0
    for span, (metric, scale, unit) in SELF_TIME_METRICS.items():
        seconds = totals.get(span, 0.0)
        covered += seconds
        result.metric(metric, seconds / max(1, per) * scale, unit)
    return covered
