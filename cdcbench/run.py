"""CDC ingest benchmark: one workload, one seed, one run.

    python3 cdcbench/run.py --workload hot_keys --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. The benchmark generates its inputs from
``--seed``, starts a Ray cluster sized to ``nproc`` and drives the engine
only through its public entry points (``replay`` / ``run_until`` /
``final_state``) in a closed loop for ``--seconds``: the next operation
starts when the previous one has finished. Every read-back is compared per
key with the ``expected_final_state`` oracle.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced operations with traced ones (``build_event_stream`` +
``run_upsert`` with Ray's ``ds.stats()``), after each traced one calls
every stage's public function in-process with one span per call (and
again without spans, to price the tracing), and reports the per-layer
metrics. Human-readable lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import os
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    # import the benchmark as a package from the checkout root, and keep
    # the script directory off the path so its module names shadow nothing
    sys.path[0] = ROOT

from cdcbench import checks, procfs, spans, workloads  # noqa: E402

SETUP_REPEATS = 3
READ_REPEATS = 3
TRACE_PASSES = 3
# how far past its seconds a run may go to reach the workload's min_epochs
MAX_STRETCH = 1.75
WARMUP_KEYS = 20

END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "cpu_us_per_event": "us",
    "readback_s": "s",
    "epoch_latency_p50_ms": "ms",
    "epoch_latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    **{metric: "us" for _, metric in spans.STAGES},
    "transforms.outbox.rows_out_per_in": "ratio",
    "sinks.upsert.combiner_rows_out_per_in": "ratio",
    "sinks.upsert.exchange_s": "s",
    "sinks.upsert.exchange_rows": "count",
    "sinks.upsert.merge_commit_us_per_row": "us",
    "sinks.manifest.commits_per_epoch": "count",
    "sinks.manifest.bytes_written": "bytes",
    "sinks.upsert.compaction_epoch_extra_ms": "ms",
    "sinks.upsert.read_lake_us_per_row": "us",
    "sinks.manifest.files_per_partition_read": "count",
    "pipelines.replay.fused_chain_s": "s",
    "sinks.upsert.map_groups_s": "s",
    "pipelines.replay.stage_us_per_event": "us",
    "pipelines.replay.outside_stage_cpu_frac": "ratio",
    "pipelines.run_until.epoch_fixed_ms": "ms",
    "bench.untraced_pass_cpu_us_per_event": "us",
    "bench.traced_pass_cpu_us_per_event": "us",
    "bench.tracing_overhead_frac": "ratio",
}


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - _T0:6.2f} s] {msg}", file=sys.stderr,
          flush=True)


class Cluster:
    """A local Ray cluster sized to ``nproc``, owned by this process."""

    # what Ray appends to its temp dir for its longest socket path
    SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000"
                        "/sockets/plasma_store")

    def __init__(self, temp_dir: str):
        # socket paths must fit AF_UNIX's 107 bytes; under a long checkout
        # path Ray keeps its files in its default temp dir instead
        fits = len(temp_dir) + self.SOCKET_SUFFIX <= 107
        self.temp_dir = temp_dir if fits else None

    def start(self) -> None:
        import ray

        ray.init(
            address="local", num_cpus=procfs.nproc(),
            include_dashboard=False, logging_level="ERROR",
            log_to_driver=False, object_store_memory=256 << 20,
            _temp_dir=self.temp_dir,
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> None:
        import ray

        if not ray.is_initialized():
            return
        pids = procfs.process_tree()
        ray.shutdown()
        killed = procfs.wait_gone(pids)
        if killed:
            log(f"killed {len(killed)} processes left after ray.shutdown")


@dataclasses.dataclass
class Inputs:
    """Staged documents files (one per epoch) and their oracles."""

    dirs: list
    expected: list  # per epoch file: {(repo, path): row}
    warmup_dir: str

    def union(self, upto: int | None = None) -> dict:
        out = {}
        for e in self.expected[: None if upto is None else upto + 1]:
            out.update(e)
        return out


def stage_inputs(w, seed: int, work: str) -> Inputs:
    from connect_smts_ray.sources.binlog import BinlogConfig, expected_final_state
    from connect_smts_ray.sources.corpus import corpus_table

    binlog = BinlogConfig(events_per_key=w.events_per_key, seed=seed)
    dirs, expected = [], []
    for i, docs in enumerate(workloads.epoch_inputs(w, seed)):
        d = os.path.join(work, "inputs", f"e{i:05d}")
        workloads.write(docs, os.path.join(d, "documents.parquet"))
        dirs.append(d)
        expected.append(expected_final_state(corpus_table(d), binlog))
    warm = os.path.join(work, "inputs", "warmup")
    workloads.write(workloads.documents(WARMUP_KEYS, seed + 7919,
                                        first_id=10**9),
                    os.path.join(warm, "documents.parquet"))
    return Inputs(dirs, expected, warm)


class Bench:
    def __init__(self, w, seed: int, work: str):
        from connect_smts_ray.pipelines.replay import ReplayConfig

        self.w, self.work = w, work
        self.base = ReplayConfig(
            sf_dir="", lake_dir="", events_per_key=w.events_per_key,
            compact_every=w.compact_every, seed=seed,
        )
        self.n_ops = 0
        self.attempted = 0
        self.failed = 0
        # traced? -> per epoch [(seconds, cpu, events)], with seconds as
        # procfs.Interval gives them, and the raw [(wall, cpu, steal)]
        self.epochs = {False: [], True: []}
        self.raw = {False: [], True: []}
        self.reads = []  # per op: read-back seconds
        self.ray_stats = []  # per traced epoch: ray stage times + lineage
        self.passes = []  # in-process passes: [(tracer, pass info)]

    # -- one operation --------------------------------------------------------

    def _fresh(self, kind: str) -> str:
        self.n_ops += 1
        path = os.path.join(self.work, kind, f"op{self.n_ops:05d}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def _attempt(self, what: str, fn):
        """Run one counted operation; an exception is a failure."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            log(f"{what} failed: {traceback.format_exc(limit=3)}")
            return None

    def _check(self, what: str, table, expected: dict) -> None:
        """Count a read whose result disagrees with the oracle as failed."""
        bad = checks.lake_mismatches(table, expected)
        if bad:
            self.failed += 1
            log(f"{what}: {len(bad)} mismatches, e.g. {bad[:3]}")

    def _ingest(self, traced: bool, fn, events: int):
        iv = procfs.Interval()
        out = fn()
        iv.stop()
        self.epochs[traced].append((iv.seconds, iv.cpu, events))
        self.raw[traced].append((iv.wall, iv.cpu, iv.steal))
        return out

    def _traced_epoch(self, cfg, epoch: int, source_path: str | None):
        """One epoch composed from ``build_event_stream`` + ``run_upsert``,
        as ``replay`` and ``run_until`` compose it, keeping its Ray stats
        and lineage."""
        from connect_smts_ray.pipelines.replay import build_event_stream
        from connect_smts_ray.sinks.upsert import run_upsert

        def run():
            ds = build_event_stream(cfg, source_path=source_path)
            return run_upsert(ds, cfg.upsert(), epoch=epoch).materialize()

        lin = self._ingest(True, run, self.w.events_per_epoch)
        lineage = lin.to_pandas()
        st = spans.ray_stage_times(lin)
        st["exchange_rows"] = int(lineage["rows_shuffled"].sum())
        st["bytes_written"] = int(lineage["bytes_written"].sum())
        self.ray_stats.append(st)
        return lin

    def _timed_reads(self, cfg, as_of=None):
        """The fastest of ``READ_REPEATS`` identical reads, and the table.
        A read runs in the driver on whichever CPU it lands on, and the
        CPUs of a shared host are not equally fast from one second to the
        next; the fastest read is the read cost on an uncontended CPU."""
        from connect_smts_ray.pipelines.replay import final_state

        times, table = [], None
        for _ in range(READ_REPEATS):
            iv = procfs.Interval()
            table = final_state(cfg, as_of=as_of)
            times.append(iv.stop().seconds)
        return min(times), table

    def replay_op(self, inputs: Inputs, traced: bool = False) -> None:
        from connect_smts_ray.pipelines.replay import replay

        cfg = dataclasses.replace(self.base, sf_dir=inputs.dirs[0],
                                  lake_dir=self._fresh("lakes"))
        if traced:
            def run():
                return self._traced_epoch(cfg, 0, None)
        else:
            def run():
                return self._ingest(False, lambda: replay(cfg),
                                    self.w.events_per_epoch)
        if self._attempt("epoch", run) is None:
            return
        got = self._attempt("read", lambda: self._timed_reads(cfg))
        if got is not None:
            self.reads.append(got[0])
            self._check("read", got[1], inputs.union())
        shutil.rmtree(cfg.lake_dir, ignore_errors=True)

    def tail_op(self, inputs: Inputs, traced: bool = False) -> None:
        """One round: stage each file beside the lake and ingest it as its
        own epoch, then read the head and one time-travel cut."""
        from connect_smts_ray.pipelines.replay import run_until

        cfg = dataclasses.replace(self.base, sf_dir=inputs.dirs[0],
                                  lake_dir=self._fresh("lakes"))
        watch = self._fresh("watch")
        os.makedirs(watch)
        ok = True
        for e, d in enumerate(inputs.dirs):
            staged = os.path.join(watch, f"e{e:05d}.parquet")
            os.link(os.path.join(d, "documents.parquet"), staged)
            if traced:
                def run(e=e, staged=staged):
                    return self._traced_epoch(cfg, e, staged)
            else:
                def run():
                    return self._ingest(
                        False, lambda: run_until(cfg, watch, max_batches=1),
                        self.w.events_per_epoch)
            ok = self._attempt("epoch", run) is not None and ok
        if ok:
            as_of = self.as_of_cut()
            head = self._attempt("read", lambda: self._timed_reads(cfg))
            cut = self._attempt(
                "read", lambda: self._timed_reads(cfg, as_of=as_of))
            if head is not None:
                self._check("read head", head[1], inputs.union())
            if cut is not None:
                self._check("read as_of", cut[1], inputs.union(as_of))
            if head is not None and cut is not None:
                self.reads.append(head[0] + cut[0])
        shutil.rmtree(cfg.lake_dir, ignore_errors=True)
        shutil.rmtree(watch, ignore_errors=True)

    def as_of_cut(self) -> int | None:
        return self.w.files // 2 - 1 if self.w.mode == "tail" else None

    def op(self, inputs: Inputs, traced: bool = False) -> None:
        if self.w.mode == "tail":
            self.tail_op(inputs, traced)
        else:
            self.replay_op(inputs, traced)

    def warmup(self, inputs: Inputs) -> None:
        """One small ingest and read through the workload's entry point:
        starts the Ray workers and imports the engine in them."""
        from connect_smts_ray.pipelines.replay import (
            final_state, replay, run_until,
        )

        cfg = dataclasses.replace(self.base, sf_dir=inputs.warmup_dir,
                                  lake_dir=self._fresh("warmup"))
        if self.w.mode == "tail":
            run_until(cfg, inputs.warmup_dir, max_batches=1)
        else:
            replay(cfg)
        final_state(cfg)
        shutil.rmtree(cfg.lake_dir, ignore_errors=True)

    # -- the closed loop -------------------------------------------------------

    def loop(self, inputs: Inputs, seconds: float, trace: bool) -> None:
        """Steps back to back; a step starts only if at least half of one
        more of the last one's length fits in ``seconds``, so a run lasts
        ``seconds`` on average. Untraced, steps go on until the workload's
        ``min_epochs`` have run, unless the next step would end past
        ``MAX_STRETCH * seconds``. A step is one operation. With ``trace``
        it is an untraced operation, a traced one, an in-process pass with
        spans and one without, so that all four see the same stretch of
        the host's time; there are then at least ``TRACE_PASSES`` steps."""
        t0 = time.perf_counter()
        last = 0.0
        i = 0

        def more() -> bool:
            elapsed = time.perf_counter() - t0
            if i < (TRACE_PASSES if trace else 1):
                return True
            if elapsed + last / 2 <= seconds:
                return True
            return (not trace
                    and len(self.epochs[False]) < self.w.min_epochs
                    and elapsed + last <= MAX_STRETCH * seconds)

        while more():
            s = time.perf_counter()
            self.op(inputs)
            if trace:
                self.op(inputs, traced=True)
                pair = (spans.Tracer(), spans.NullTracer())
                for tracer in pair[::1 if i % 2 == 0 else -1]:
                    self.passes.append(
                        (tracer, self.in_process_pass(inputs, tracer)))
            last = time.perf_counter() - s
            i += 1

    def in_process_pass(self, inputs: Inputs, tracer) -> dict:
        """One in-process pass over one operation's inputs, into its own
        lake, with its spans in ``tracer``. Adds the CPU seconds of the
        driver's main thread, where the stages and spans run (``cpu_s``),
        and the extra merge time of a compacting epoch to the pass info. A
        workload with one epoch per operation never compacts, so its epoch
        is merged a second time into a lake that compacts every epoch."""
        cfg = dataclasses.replace(self.base, lake_dir=self._fresh("traced"))
        sources = [os.path.join(d, "documents.parquet") for d in inputs.dirs]
        ce = cfg.compact_every
        compacts = any((e + 1) % ce == 0 for e in range(len(sources)))
        probe = None if compacts else dataclasses.replace(
            cfg.upsert(), lake_dir=self._fresh("traced"), compact_every=1)
        # the garbage of the step's Ray operations would otherwise be
        # collected during whichever pass comes first
        gc.collect()
        c0 = time.thread_time()
        info = spans.traced_pass(tracer, cfg, sources, self.as_of_cut(), probe)
        info["cpu_s"] = time.thread_time() - c0
        if compacts:
            compacting = [s for e, s in info["merges"] if (e + 1) % ce == 0]
            plain = [s for e, s in info["merges"] if (e + 1) % ce != 0]
        else:
            compacting = [s for _, s in info["probe_merges"]]
            plain = [s for _, s in info["merges"]]
        info["compaction_extra_s"] = (checks.median(compacting)
                                      - checks.median(plain))
        shutil.rmtree(cfg.lake_dir, ignore_errors=True)
        if probe is not None:
            shutil.rmtree(probe.lake_dir, ignore_errors=True)
        return info


# -- metrics ------------------------------------------------------------------

def end_to_end(b: Bench, setup: list, rss_mb: float) -> dict:
    ep = b.epochs[False]
    lat = [wall * 1e3 for wall, _, _ in ep]
    tail_ms, pct, n = checks.tail(lat)
    # epochs are in ingest order, ``files`` to an operation
    e = lat.index(tail_ms) % b.w.files if tail_ms in lat else None
    compacting = e is not None and (e + 1) % b.w.compact_every == 0
    log(f"epoch latency tail = p{pct:.1f} of n={n} epochs"
        f"{', a compacting epoch' if compacting else ''}")
    return {
        "setup_s": checks.median(setup),
        "events_per_s": checks.median(ev / wall for wall, _, ev in ep),
        "cpu_us_per_event": checks.median(cpu / ev * 1e6 for _, cpu, ev in ep),
        "readback_s": checks.median(b.reads),
        "epoch_latency_p50_ms": checks.median(lat),
        "epoch_latency_tail_ms": tail_ms,
        "peak_rss_mb": rss_mb,
        "ok_frac": (b.attempted - b.failed) / b.attempted,
    }


def pass_metrics(tracer: spans.Tracer, info: dict) -> dict:
    """Per-layer metrics of one in-process pass, plus its median epoch
    span (``epoch_ms``)."""
    events = tracer.total("synthesize")[2]
    out = {}
    stage_s = 0.0
    for name, metric in spans.STAGES:
        s, _, _ = tracer.total(name)
        stage_s += s
        out[metric] = s / events * 1e6
    _, oin, oout = tracer.total("outbox")
    out["transforms.outbox.rows_out_per_in"] = oout / oin
    _, cin, cout = tracer.total("partial_lww")
    out["sinks.upsert.combiner_rows_out_per_in"] = cout / cin
    ms, mrows, _ = tracer.total("merge_commit")
    stage_s += ms
    out["sinks.upsert.merge_commit_us_per_row"] = ms / mrows * 1e6
    rs, _, _ = tracer.total("read_lake")
    out["sinks.upsert.read_lake_us_per_row"] = rs / info["read_rows"] * 1e6
    out["sinks.manifest.files_per_partition_read"] = info["files_per_partition"]
    out["sinks.manifest.commits_per_epoch"] = (info["commits"]
                                               / len(info["merges"]))
    out["sinks.upsert.compaction_epoch_extra_ms"] = (
        info["compaction_extra_s"] * 1e3)
    out["pipelines.replay.stage_us_per_event"] = stage_s / events * 1e6
    out["epoch_ms"] = checks.median(
        s.seconds * 1e3 for s in tracer.spans if s.name == "epoch")
    return out


def per_layer(b: Bench) -> dict:
    """Per-metric medians over the traced in-process passes, the Ray stats
    of the traced operations of the closed loop, and the tracing overhead:
    the median over steps of the driver CPU of the traced pass over that
    of the untraced one, minus 1."""
    passes = b.passes
    per_pass = [pass_metrics(t, info) for t, info in passes if t.traced]
    out = {k: checks.median(p[k] for p in per_pass) for k in per_pass[0]}
    epoch_ms = out.pop("epoch_ms")
    for key, name in (("exchange_s", "sinks.upsert.exchange_s"),
                      ("exchange_rows", "sinks.upsert.exchange_rows"),
                      ("bytes_written", "sinks.manifest.bytes_written"),
                      ("fused_chain_s", "pipelines.replay.fused_chain_s"),
                      ("map_groups_s", "sinks.upsert.map_groups_s")):
        out[name] = checks.median(st[key] for st in b.ray_stats)
    untraced = checks.median(c / ev * 1e6 for _, c, ev in b.epochs[False])
    out["pipelines.replay.outside_stage_cpu_frac"] = (
        1 - out["pipelines.replay.stage_us_per_event"] / untraced)
    # raw wall times on both sides: in-process spans keep their steal
    out["pipelines.run_until.epoch_fixed_ms"] = checks.median(
        wall * 1e3 for wall, _, _ in b.raw[False]) - epoch_ms
    events = b.w.events_per_epoch * b.w.files
    cpu = {traced: checks.median(info["cpu_s"] / events * 1e6
                                 for t, info in passes if t.traced == traced)
           for traced in (False, True)}
    out["bench.untraced_pass_cpu_us_per_event"] = cpu[False]
    out["bench.traced_pass_cpu_us_per_event"] = cpu[True]
    # the two passes of a step ran back to back: their ratio leaves out
    # the host's drift from step to step
    ratios = []
    for (t1, i1), (_, i2) in zip(passes[0::2], passes[1::2]):
        traced, untraced = (i1, i2) if t1.traced else (i2, i1)
        ratios.append(traced["cpu_s"] / untraced["cpu_s"])
    out["bench.tracing_overhead_frac"] = checks.median(ratios) - 1
    return out


def report(metrics: dict, units: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.4f} {units[name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "connect_smts_ray",
                                       "pipelines", "replay.py")):
        log(f"engine sources not found under {ROOT}: run from a checkout")
        return 2
    # Ray workers import the engine from the checkout too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_run", f"{w.name}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cluster = Cluster(os.path.join(ROOT, ".bench_run", "ray"))
    steal0 = procfs.steal_s()
    bench = Bench(w, args.seed, work)
    setup = []
    try:
        # set up several times, so setup_s is a median; the last cluster
        # stays up and measures the whole run. A traced run reports no
        # setup_s and sets up once.
        for i in range(1 if args.trace else SETUP_REPEATS):
            if i:
                cluster.stop()
                shutil.rmtree(os.path.join(work, "inputs"))
            iv = procfs.Interval()
            cluster.start()
            t1 = time.perf_counter()
            inputs = stage_inputs(w, args.seed, work)
            t2 = time.perf_counter()
            bench.warmup(inputs)
            setup.append(iv.stop().seconds)
            log(f"setup: ray.init {t1 - iv.t0:.2f} s, inputs {t2 - t1:.2f} s, "
                f"warm-up {iv.wall - (t2 - iv.t0):.2f} s, "
                f"steal {iv.steal:.2f} s, {setup[-1]:.2f} s without it")
        bench.loop(inputs, args.seconds, bool(args.trace))
        rss = procfs.tree_peak_rss_mb()
        stamp = procfs.stamp()
    finally:
        cluster.stop()
        shutil.rmtree(work, ignore_errors=True)
        if cluster.temp_dir:
            shutil.rmtree(cluster.temp_dir, ignore_errors=True)
    stamp["steal_s"] = procfs.steal_s() - steal0
    stamp["seed"] = args.seed
    stamp["workload"] = w.name

    if not (bench.epochs[False] and bench.reads
            and (bench.epochs[True] or not args.trace)):
        log("too few operations succeeded to report")
        return 1
    if args.trace:
        metrics, units = per_layer(bench), PER_LAYER
        spans.write([t for t, _ in bench.passes if t.traced], os.path.join(
            out_dir, f"{w.name}-seed{args.seed}-spans.jsonl"))
    else:
        metrics, units = end_to_end(bench, setup, rss), END_TO_END
    print(f"host {json.dumps(stamp, sort_keys=True)}")
    print(f"oracle: {bench.attempted - bench.failed}/{bench.attempted} "
          f"operations agree with expected_final_state "
          f"(failed_frac {bench.failed / bench.attempted:.4f})")
    report(metrics, units)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(out_dir, f"{w.name}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
        json.dump({"host": stamp, "epochs": bench.epochs, "raw": bench.raw,
                   "reads": bench.reads,
                   "pass_cpu_s": [(t.traced, info["cpu_s"])
                                  for t, info in bench.passes],
                   **result}, f, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
