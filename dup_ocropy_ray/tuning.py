"""Execution-context tuning for this engine's workload shape.

The OCR chain is many chained map stages with TINY inter-stage outputs
(KBs of text rows) but heavy per-batch CPU (image kernels, LSTM matmuls).
Ray Data's default per-operator resource reservation
(``ReservationOpResourceAllocator``: 50% of cluster CPUs split evenly
across operators) throttles the one hot map stage to ~1-2 concurrent
tasks when the DAG has 6+ operators on a small node — measured 3.5x
end-to-end slowdown at 8 CPUs. Reservation exists to bound memory for
large inter-stage outputs, which this pipeline never produces, so we
disable it and let the streaming executor schedule by demand.

Must run BEFORE datasets are created (each Dataset snapshots the
context); every reader/pipeline builder in this package calls it.
"""

from __future__ import annotations

import logging

from ray.data import DataContext


class _DropEmptyBundleSchemaWarning(logging.Filter):
    """Ray's sort shuffle emits EMPTY blocks for empty partitions without
    consulting the UDF, and the streaming executor then warns 'Operator
    produced a RefBundle with a different schema ... new schema: .' once
    per empty bundle — dozens per bucketed-shuffle query even though
    every UDF in this package returns explicitly-schema'd Arrow tables.
    Only that exact Ray-internal message is dropped; real schema
    mismatches (two NON-empty schemas) still log."""

    def filter(self, record: logging.LogRecord) -> bool:
        msg = record.getMessage()
        return not ("RefBundle with a different schema" in msg
                    and "new schema: ." in msg.replace(
                        "new schema: PandasBlockSchema(names=[], types=[]).",
                        "new schema: ."))


def configure_data_context(ctx: DataContext | None = None) -> DataContext:
    ctx = ctx or DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
    # A SINGLE-file parquet read is one task that yields its SplitBlocks
    # pieces through a streaming generator capped at 2 unconsumed
    # blocks: the whole downstream pipeline then dispatches in lockstep
    # with that trickle (measured on the extraction queries: ~3x
    # concurrency on a 32-CPU host, 3.6 s for a job whose compute is
    # 0.7 s once the read is materialized). Raising the cap decouples
    # them. This is a CAP, not a demand — multi-file reads yield few
    # blocks per task and never approach it; the pathological case it
    # fixes (one producer task, many small blocks) is exactly where the
    # buffered bytes are small. The cap also governs expanding MAP
    # producers (e.g. the chunked WARC parse, 32 MiB blocks): there the
    # worst case is cap x block-size per in-flight task buffered in the
    # OBJECT STORE (plasma spills under pressure; worker heaps are
    # unaffected), and measured end-to-end this setting is strictly
    # better on both the query suite and the OCR flagship
    # (44.9 -> 46.6 pages/s).
    ctx._max_num_blocks_in_streaming_gen_buffer = 64
    lg = logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state")
    if not any(isinstance(f, _DropEmptyBundleSchemaWarning)
               for f in lg.filters):
        lg.addFilter(_DropEmptyBundleSchemaWarning())
    return ctx


def parquet_schema(path: str, columns=None):
    """Footer-only read of a parquet file's schema, with pandas/user
    metadata stripped.  Passed to ``read_parquet(schema=...)`` so every
    block's schema is hashable — pyarrow Schemas carrying metadata raise
    ``unhashable type: 'dict'`` inside Ray's schema-dedup fast path
    (transform_pyarrow.unify_schemas), which both defeats the early-exit
    and spams a warning per task."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "**", "*.parquet"),
                                 recursive=True))
        if not files:
            return None
        path = files[0]
    sch = pq.read_schema(path)
    if columns is not None:
        return pa.schema([sch.field(c) for c in columns])
    return sch.remove_metadata()


def suggested_partitions(mult: int = 2, floor: int = 32) -> int:
    """Shuffle fan-out sized to the cluster actually attached: ~mult x
    the executor CPU slots, floored for small test sessions (32 up to
    16 CPUs). It is the default partition count of
    ``relational.partition_map`` (every keyed exchange that is not
    given one) and of ``bucket_join``, so the same code runs 32-way on
    the laptop and ~2x-slots-way on a 256-node cluster without
    retuning."""
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 0)) if (
            ray.is_initialized()) else 0
    except Exception:
        cpus = 0
    return max(floor, mult * cpus)
