#!/usr/bin/env python3
"""External mechanism that answers every request line with the one reply
line given as its argument, whatever the instance.

The reply is written as the argument's raw bytes (os.fsencode undoes the
decoding of argv), so a caller can send bytes that are not UTF-8 by
passing os.fsdecode(data)."""

import os
import sys


def main():
    reply = os.fsencode(sys.argv[1]) + b"\n"
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.buffer.write(reply)
        sys.stdout.flush()


if __name__ == "__main__":
    main()
