"""Seeded inputs for the CDC benchmark.

Every input is a ``documents``-shaped parquet file (``doc_id, text, lang,
source, n_chars``), the table the engine's corpus reader consumes. The
generator mirrors the shape of the sf0.1 ``documents`` table: texts of 10
to 99 words drawn uniformly from a 31-word vocabulary, 40% ``en`` and 15%
each of ``de``/``es``/``fr``/``zh``, and ``source = src{doc_id % 20}``.
The same seed always gives the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join "
    "key line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
LANGS = ("en", "de", "es", "fr", "zh")
LANG_P = (0.40, 0.15, 0.15, 0.15, 0.15)
N_SOURCES = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the input shape and the ingest driver.

    ``mode`` is ``"replay"`` (an operation is one ``replay()`` epoch over
    one documents file into a fresh lake) or ``"tail"`` (an operation is a
    round: ``files`` staged files, each ingested by its own
    ``run_until(max_batches=1)`` epoch into a fresh lake).
    ``keys`` is the number of keys one epoch ingests. An untraced run
    goes on past its seconds until it holds ``min_epochs`` epochs, within
    a limit (see ``run.Bench.loop``)."""

    name: str
    mode: str
    keys: int
    events_per_key: int
    files: int = 1
    compact_every: int = 8
    min_epochs: int = 0

    @property
    def events_per_epoch(self) -> int:
        return self.keys * self.events_per_key


WORKLOADS = {
    w.name: w
    for w in (
        # few keys, 100 events each: the fused stage chain dominates and
        # the combiner cuts rows ~100x before the exchange
        Workload("hot_keys", "replay", keys=500, events_per_key=100),
        # small disjoint-key files, one run_until epoch each: fixed
        # per-epoch cost, manifest commits and compaction dominate. Every
        # second epoch compacts and a run holds 24 epochs, so the latency
        # tail (ten epochs beyond it) lands on a compacting one
        Workload("tail_microbatch", "tail", keys=500, events_per_key=8,
                 files=4, compact_every=2, min_epochs=24),
    )
}


def documents(n: int, seed: int, first_id: int = 0) -> pa.Table:
    """``n`` documents with ids ``first_id .. first_id + n - 1``."""
    rng = np.random.default_rng(seed)
    n_words = rng.integers(10, 100, size=n)
    words = rng.integers(0, len(VOCAB), size=int(n_words.sum()))
    vocab = np.array(VOCAB, dtype=object)
    texts, pos = [], 0
    for k in n_words:
        texts.append(" ".join(vocab[words[pos:pos + k]]))
        pos += k
    ids = np.arange(first_id, first_id + n, dtype=np.int64)
    langs = rng.choice(np.array(LANGS, dtype=object), size=n, p=LANG_P)
    return pa.table({
        "doc_id": pa.array(ids),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array(langs.tolist(), type=pa.string()),
        "source": pa.array([f"src{i % N_SOURCES}" for i in ids.tolist()],
                           type=pa.string()),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def write(table: pa.Table, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path)


def epoch_inputs(w: Workload, seed: int) -> list:
    """The documents of each epoch of one operation, in ingest order.
    Files of one operation hold disjoint ``doc_id`` ranges, so keys never
    straddle files (the ``run_until`` contract)."""
    return [
        documents(w.keys, seed * 1_000_003 + i, first_id=i * w.keys)
        for i in range(w.files)
    ]
