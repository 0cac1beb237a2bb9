"""One tunnel endpoint, run as a child process of the tunnel workloads.

    python3 perfbench/endpoint.py <workload> <role> <noise seed> <wire port> <app port>

Messages to the parent are JSON lines on the original standard output; the
endpoint's own output goes to standard error. A line on standard input, or
its end, tells the endpoint to stop.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from live import configs, endpoint_main  # noqa: E402


def main(argv: list[str]) -> int:
    workload, role, seed, wire_port, app_port = argv
    out = os.fdopen(os.dup(sys.stdout.fileno()), "w", encoding="utf-8")
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())
    serve, connect = configs(workload, int(wire_port), int(app_port))
    endpoint_main(serve if role == "serve" else connect, role, int(seed), sys.stdin, out)
    out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
