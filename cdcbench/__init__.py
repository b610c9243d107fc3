"""Benchmark of the CDC ingest engine; see run.py and NOTES.md."""
