"""Sample another process's resident set size from the outside.

Usage: python3 rss_sampler.py <pid> <out-file>

Reads /proc/<pid>/statm (read only) every INTERVAL seconds and appends
"<monotonic seconds> <resident bytes>" lines to the output file, until it
receives SIGTERM or the watched process is gone.  Sampling from a separate
process keeps working while the watched process holds its interpreter lock
inside a long NumPy copy.
"""

from __future__ import annotations

import os
import signal
import sys
import time

INTERVAL = 0.002


def _stop(signum, frame):
    raise SystemExit(0)


def main(argv: list[str]) -> int:
    pid, out = int(argv[0]), argv[1]
    page = os.sysconf("SC_PAGE_SIZE")
    signal.signal(signal.SIGTERM, _stop)
    with open(out, "w") as fh:
        while True:
            try:
                with open(f"/proc/{pid}/statm") as statm:
                    resident = int(statm.read().split()[1]) * page
            except (FileNotFoundError, ProcessLookupError, IndexError):
                return 0
            fh.write(f"{time.monotonic():.6f} {resident}\n")
            time.sleep(INTERVAL)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
