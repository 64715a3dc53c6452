"""Start ``repro serve`` with the benchmark's trace wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_PATH`` from the
checkout root with ``PYTHONPATH=src``.  Listens on a free loopback
port (announced on stdout like ``repro serve``).  SIGUSR1 drops every
span recorded so far (the benchmark sends it when its measured window
opens) and answers ``trace reset`` on stdout; on SIGTERM the daemon
stops and the spans and counters are written to SPANS_PATH as JSON.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(spans_path: str) -> None:
    import repro.serve.daemon as daemon

    recorder = tracing.Recorder()
    tracing.install(recorder)

    def reset(signum, frame):
        recorder.reset()
        print("trace reset", flush=True)

    def stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGUSR1, reset)
    # serve() returns on KeyboardInterrupt; the benchmark stops the
    # daemon with SIGTERM.
    signal.signal(signal.SIGTERM, stop)
    daemon.serve(host="127.0.0.1", port=0,
                 announce=lambda line: print(line, flush=True))
    with open(spans_path, "w") as handle:
        json.dump({"spans": recorder.spans,
                   "counters": recorder.counters}, handle)


if __name__ == "__main__":
    main(sys.argv[1])
