#!/usr/bin/env python3
"""Write tests/traces/line_table_mix.trace.gz, the LineTable fixture.

An address-only text trace (the frontend synthesizes each write's
payload, so every write is unique content) that puts both sides of
LineTable's sparse/dense switch into one run:

  - 1500 records (70% writes) at lines drawn uniformly over the first
    8 GB: every table keeps them hashed;
  - one run of 2048 consecutive line writes from 1 MB on (inside one
    4096-line region): at -channels=4 each pipeline shard owns every
    fourth of them, 512 lines, enough to turn that region of its AMT,
    counter and wear tables into a strided array;
  - 600 reads and rewrites inside the run, interleaved with more
    scattered records.

Output is deterministic (fixed seed, gzip mtime 0), so re-running the
script reproduces the committed bytes:

    python3 scripts/make_line_table_trace.py tests/traces/line_table_mix.trace.gz
"""

import gzip
import random
import sys

LINE = 64
SCATTER_LINES = (8 << 30) // LINE
RUN_BASE = 1 << 20  # byte address; line 16384, the start of region 4
RUN_LINES = 2048


def records(rng):
    def scattered():
        op = "W" if rng.random() < 0.7 else "R"
        return op, rng.randrange(SCATTER_LINES) * LINE

    for _ in range(1500):
        yield scattered()
    for i in range(RUN_LINES):
        yield "W", RUN_BASE + i * LINE
    for _ in range(600):
        yield rng.choice("RW"), RUN_BASE + rng.randrange(RUN_LINES) * LINE
        yield scattered()


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: make_line_table_trace.py OUT.trace.gz")
    rng = random.Random(24)
    text = "".join(f"{op} {addr:x} {rng.randrange(20, 200)}\n"
                   for op, addr in records(rng))
    with open(sys.argv[1], "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                           filename="") as gz:
            gz.write(text.encode())


if __name__ == "__main__":
    main()
