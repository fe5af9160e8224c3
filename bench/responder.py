"""A min-work mechanism speaking mechdock's line-JSON protocol.

Reads one instance per line on stdin and answers ``{"owner": [...]}``: each
job goes to its cheapest finite player in tiered order, ties to the lowest
index. It uses the benchmark's own arithmetic and does not import mechdock,
so its answers cross-check ``mechlib.minwork_allocate``.

With ``--busy-file PATH`` it keeps the total seconds it has spent computing
answers in PATH, rewritten before each reply is sent, so the benchmark can
take the responder's share out of the time it measures.

Run: python3 bench/responder.py [--busy-file PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tiered  # noqa: E402


def minwork(inst):
    n, m, costs = inst["n"], inst["m"], inst["costs"]
    owner = []
    for j in range(m):
        best, best_cost = None, None
        for i in range(n):
            text = costs[i][j]
            if text == tiered.INF:
                continue
            c = tiered.parse(text)
            if best is None or tiered.compare(c, best_cost) < 0:
                best, best_cost = i + 1, c
        if best is None:
            raise ValueError(f"job {j + 1} has no finite-cost player")
        owner.append(best)
    return owner


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--busy-file")
    args = parser.parse_args()
    busy = 0.0
    for line in sys.stdin:
        if not line.strip():
            continue
        t0 = time.perf_counter()
        reply = json.dumps({"owner": minwork(json.loads(line))}) + "\n"
        busy += time.perf_counter() - t0
        if args.busy_file:
            Path(args.busy_file).write_text(repr(busy))
        sys.stdout.write(reply)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
