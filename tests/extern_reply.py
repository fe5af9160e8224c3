#!/usr/bin/env python3
"""External mechanism that answers every request line with the one reply
line given as its argument, whatever the instance."""

import sys


def main():
    reply = sys.argv[1]
    for line in sys.stdin:
        if not line.strip():
            continue
        sys.stdout.write(reply + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
