"""Pure helpers of the benchmark: summary statistics, the lake-vs-oracle
check and metric-name validation. Nothing here touches Ray."""

from __future__ import annotations

import hashlib
import re
import statistics

import pyarrow as pa

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple:
    """``(value, percentile, n)`` for the highest percentile that has at
    least ten samples beyond it: the sample of rank ``n - 10`` in ascending
    order. With 20 samples or fewer that rank falls below the median, so
    the median is returned and flagged with ``percentile = 50``.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= 20:
        return median(xs), 50.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


def quartile_spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def _sha(s) -> str | None:
    return None if s is None else hashlib.sha256(s.encode()).hexdigest()


def lake_mismatches(lake: pa.Table, expected: dict) -> list:
    """Compare a lake read-back with the ``expected_final_state`` oracle,
    per key: the key set, sha256 of ``content``, ``commit_lsn`` and
    ``source_offset``. Returns one line per disagreement (empty = equal)."""
    out = []
    got = {}
    if lake.num_rows:
        cols = lake.select(["repo", "path", "content", "commit_lsn",
                            "source_offset"]).to_pydict()
        for repo, path, content, lsn, off in zip(
                cols["repo"], cols["path"], cols["content"],
                cols["commit_lsn"], cols["source_offset"]):
            if (repo, path) in got:
                out.append(f"duplicate key {repo}/{path}")
            got[(repo, path)] = (_sha(content), lsn, off)
    for key in expected.keys() - got.keys():
        out.append(f"missing key {key[0]}/{key[1]}")
    for key in got.keys() - expected.keys():
        out.append(f"unexpected key {key[0]}/{key[1]}")
    for key in expected.keys() & got.keys():
        e = expected[key]
        want = (_sha(e["content"]), e["commit_lsn"], e["source_offset"])
        for field, w, g in zip(("content_sha256", "commit_lsn",
                                "source_offset"), want, got[key]):
            if w != g:
                out.append(f"{key[0]}/{key[1]}: {field} {g!r} != {w!r}")
    return out
