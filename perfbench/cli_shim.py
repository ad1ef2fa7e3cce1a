"""Run one `emwave` command in a fresh process, as the console script would.

Usage: python3 cli_shim.py <emwave arguments...>

The shim imports `emwave.cli` from the checkout's `src/`, installs wrappers
from `tracing` and then calls `cli.main`.  With PERFBENCH_TRACE=1 every
entry point is wrapped and the spans are kept; otherwise only the oracle is
wrapped, so the benchmark can fail an op whose oracle did not converge.
When PERFBENCH_CHILD_OUT names a file, a JSON record of the import time,
exit status, oracle outcomes and spans is written there on exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    tracer = Tracer(layers=None if traced else {"oracle"})
    t0 = time.monotonic()
    with tracer.span("cli.import", "cli", "cli.import"):
        from emwave import cli
    import_s = time.monotonic() - t0
    tracer.phase = "op"
    tracer.install()
    try:
        with tracer.span("cli.main", "cli", "cli.self"):
            status = cli.main(argv)
    finally:
        tracer.uninstall()
        out = os.environ.get("PERFBENCH_CHILD_OUT")
        if out:
            oracle = [sp for sp in tracer.spans if sp["bucket"] == "oracle" and "converged" in sp]
            record = {
                "import_s": import_s,
                "oracle_calls": len(oracle),
                "oracle_unconverged": sum(not sp["converged"] for sp in oracle),
                "spans": tracer.spans if traced else [],
            }
            Path(out).write_text(json.dumps(record))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
