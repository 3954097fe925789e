"""Run one ``repro`` CLI command as a benchmark-owned process.

    python3 perfbench/launch.py --out FILE [--trace] -- serve --port 7421

The wire workloads start the server and the router through this
launcher, traced or not, so both runs start the program the same way.
With ``--trace`` the launcher installs the span wrappers before the
command runs. When the command returns (after a graceful drain) it
writes its peak resident memory and, if traced, every recorded span
to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ensure_program  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    ensure_program()
    from repro import cli

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder().install()
    code = 1
    try:
        code = cli.main(argv)
    finally:
        out = {
            "exit_code": code,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if recorder is not None:
            out["trace"] = recorder.dump()
        Path(args.out).write_text(json.dumps(out))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
