"""The traced pass: every stage's public function called in-process, in
pipeline order, with one span per call, plus the Ray ``ds.stats()``
breakdown of a composed ``build_event_stream`` + ``run_upsert`` run.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.compute as pc

# span name -> per-layer metric of its time per source event; in pipeline
# order (layer = module; a module with several stages names the function)
STAGES = (
    ("synthesize", "sources.binlog.synthesize_us_per_event"),
    ("encrypt", "transforms.crypto.encrypt_us_per_event"),
    ("decrypt", "transforms.crypto.decrypt_us_per_event"),
    ("outbox", "transforms.outbox.us_per_event"),
    ("expand_json", "transforms.expand_json.us_per_event"),
    ("field_mapping", "transforms.field_mapping.us_per_event"),
    ("partition_id", "sinks.upsert.partition_id_us_per_event"),
    ("partial_lww", "sinks.upsert.partial_lww_us_per_event"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    rows_in: int = 0
    rows_out: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    traced = True

    def __init__(self):
        self.spans: list = []

    def open(self, name: str, parent: Span | None = None,
             rows_in: int = 0) -> Span:
        s = Span(len(self.spans), name, None if parent is None else parent.id,
                 time.perf_counter(), rows_in=rows_in)
        self.spans.append(s)
        return s

    def call(self, name: str, parent: Span | None, fn, arg):
        """``fn(arg)`` inside a span; rows are ``num_rows`` of the tables."""
        s = self.open(name, parent, getattr(arg, "num_rows", 0))
        out = fn(arg)
        s.end = time.perf_counter()
        s.rows_out = getattr(out, "num_rows", 0)
        return out

    def close(self, s: Span, rows_out: int = 0) -> None:
        s.end = time.perf_counter()
        s.rows_out = rows_out

    def total(self, name: str) -> tuple:
        """(seconds, rows_in, rows_out) summed over spans called ``name``."""
        sel = [s for s in self.spans if s.name == name]
        return (sum(s.seconds for s in sel), sum(s.rows_in for s in sel),
                sum(s.rows_out for s in sel))


class NullTracer(Tracer):
    """The same calls as a ``Tracer`` with no spans: the untraced baseline
    that prices the tracing."""

    traced = False

    def open(self, name: str, parent: Span | None = None,
             rows_in: int = 0) -> None:
        return None

    def call(self, name: str, parent: Span | None, fn, arg):
        return fn(arg)

    def close(self, s: Span | None, rows_out: int = 0) -> None:
        pass


def write(tracers: list, path: str) -> None:
    """Every span of every tracer, one JSON object a line, tagged with the
    index of its tracer (``pass``)."""
    with open(path, "w") as f:
        for i, tracer in enumerate(tracers):
            for s in tracer.spans:
                f.write(json.dumps({"pass": i, **asdict(s)}) + "\n")


def traced_pass(tracer: Tracer, cfg, sources: list, read_as_of,
                probe_cfg=None) -> dict:
    """Run one operation's epochs in-process, one file of ``sources`` per
    epoch, exactly as the engine chains them: per corpus block
    synthesize -> encrypt -> decrypt -> outbox -> ExpandJson -> field
    mapping -> partition id -> partial LWW, then the per-partition merge
    and commit, then the head read (and the ``read_as_of`` cut, if any).
    With ``probe_cfg`` every epoch's groups are merged a second time,
    untraced, into that config's lake. Returns the per-epoch merge seconds
    (``merges``, and ``probe_merges`` for the second lake), the rows read,
    files per partition read plan and manifest commits."""
    import pyarrow.parquet as pq
    import ray

    from connect_smts_ray.pipelines.replay import LAKE_MAPPING
    from connect_smts_ray.sinks.upsert import (
        add_partition_id, merge_partition, partial_lww, read_lake,
    )
    from connect_smts_ray.sources.binlog import synthesize_events
    from connect_smts_ray.sources.corpus import read_corpus_file
    from connect_smts_ray.transforms.crypto import DecryptColumn, EncryptColumn
    from connect_smts_ray.transforms.expand_json import ExpandJson
    from connect_smts_ray.transforms.field_mapping import apply_field_mapping
    from connect_smts_ray.transforms.outbox import outbox_route

    ucfg = cfg.upsert()
    # per-worker state is built once per pipeline in the engine; build it
    # once here too, outside the spans
    enc = EncryptColumn(cfg.jose(), deterministic=True)
    dec = DecryptColumn(cfg.jose())
    expand = ExpandJson(cfg.expand())
    binlog, outbox = cfg.binlog(), cfg.outbox()
    fns = {
        "synthesize": lambda b: synthesize_events(b, binlog),
        "encrypt": enc,
        "decrypt": lambda b: b.set_column(
            b.column_names.index("payload"), pa.field("payload", pa.string()),
            pc.cast(dec(b).column("payload"), pa.string())),
        "outbox": lambda b: outbox_route(b, outbox),
        "expand_json": expand,
        "field_mapping": lambda b: apply_field_mapping(b, LAKE_MAPPING),
        "partition_id": lambda b: add_partition_id(b, ucfg),
        "partial_lww": lambda b: partial_lww(b, ucfg),
    }
    merges = []  # (epoch, seconds of all partitions' merge + commit)
    probe_merges = []
    for epoch, path in enumerate(sources):
        n = pq.read_metadata(path).num_rows
        # the same corpus blocks the engine reads, materialized up front
        corpus = read_corpus_file(
            path, num_blocks=cfg.effective_read_blocks(n)).to_arrow_refs()
        blocks = [b for b in ray.get(corpus) if b.num_rows]
        ep = tracer.open("epoch", None, sum(b.num_rows for b in blocks))
        outs = []
        for block in blocks:
            bs = tracer.open("block", ep, block.num_rows)
            b = block
            for name, _ in STAGES:
                b = tracer.call(name, bs, fns[name], b)
            tracer.close(bs, b.num_rows)
            outs.append(b)
        rows = pa.concat_tables(outs)
        pids = rows.column("partition_id")
        groups = [rows.filter(pc.equal(pids, pid))
                  for pid in pc.unique(pids).to_pylist()]
        t0 = time.perf_counter()
        for group in groups:
            tracer.call("merge_commit", ep,
                        lambda g: merge_partition(g, ucfg, epoch), group)
        merges.append((epoch, time.perf_counter() - t0))
        if probe_cfg is not None:
            t0 = time.perf_counter()
            for group in groups:
                merge_partition(group, probe_cfg, epoch)
            probe_merges.append((epoch, time.perf_counter() - t0))
        tracer.close(ep, rows.num_rows)
    head = tracer.call("read_lake", None, lambda _: read_lake(ucfg), None)
    read_rows = head.num_rows
    if read_as_of is not None:
        cut = tracer.call("read_lake", None,
                          lambda _: read_lake(ucfg, as_of=read_as_of), None)
        read_rows += cut.num_rows
    store = ucfg.resolve().store()
    index = store.manifest_index()
    files = [
        (base is not None) + len(deltas)
        for base, deltas in (store.read_plan(pid, index=index)
                             for pid in set(index["deltas"]) | set(index["bases"]))
    ]
    commits = sum(map(len, index["deltas"].values())) + sum(
        map(len, index["bases"].values()))
    return {"merges": merges, "probe_merges": probe_merges,
            "read_rows": read_rows,
            "files_per_partition": sum(files) / max(1, len(files)),
            "commits": commits}


# Ray Data operator names of the exchange under either shuffle strategy
_EXCHANGE_WORDS = ("Sort", "Shuffle", "Hash", "Aggregate", "Repartition")


def ray_stage_times(ds) -> dict:
    """Remote busy seconds of the fused map chain, the exchange and the
    final ``map_groups`` operator, from a materialized dataset's stats."""
    # the structured form of what ``ds.stats()`` prints
    summary = ds._plan.stats().to_summary()
    ops, todo = [], [summary]
    while todo:
        s = todo.pop()
        ops.extend(s.operators_stats)
        todo.extend(s.parents)
    out = {"fused_chain_s": 0.0, "exchange_s": 0.0, "map_groups_s": 0.0}
    final = summary.operators_stats[-1].operator_name
    for op in ops:
        busy = float((op.wall_time or {}).get("sum", 0.0))
        name = op.operator_name
        if "ExpandJson" in name:
            out["fused_chain_s"] += busy
        elif any(w in name for w in _EXCHANGE_WORDS):
            out["exchange_s"] += busy
        elif name == final:
            out["map_groups_s"] += busy
    return out
