"""netshaper benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sim-web-256 --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the workload
traced and prints the per-layer metrics. ``BENCHMARK.json`` names the
workloads and metrics and gives each metric its unit. Output checks count
towards ``attempted`` and ``failed``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Which layers each workload runs; layers it does not run report 0 in the traced run.
LAYERS = {
    "sim-web-256": ("shaping", "sim", "dpcore", "frames", "records"),
    "sim-video-1": ("shaping", "sim", "dpcore", "frames", "records"),
    "corpus-web": ("traces", "dpcore"),
    "tunnel-bulk": ("tunnel", "dpcore", "frames", "records"),
    "tunnel-rpc": ("tunnel", "dpcore", "frames", "records"),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(workload: str) -> dict:
    import cryptography
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }
    if workload.startswith("tunnel-"):
        env["link"] = "host loopback, not a real link"
    return env


def run(workload: str, seed: int, seconds: float, trace: bool, size: str):
    if workload.startswith("sim-"):
        from offline import run_sim

        return run_sim(workload, seed, seconds, trace, size)
    if workload == "corpus-web":
        from offline import run_corpus

        work_dir = os.path.join(OUT_DIR, f"corpus-{os.getpid()}")
        return run_corpus(workload, seed, seconds, trace, size, work_dir)
    from live import run_tunnel

    return run_tunnel(workload, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(LAYERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "netshaper")):
        print(f"error: no netshaper package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    trace = bool(args.trace)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]

    env = environment(args.workload)
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} size {args.size}")
    print("# environment " + json.dumps(env))
    outcome = run(args.workload, args.seed, args.seconds, trace, args.size)
    if outcome.trace is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(outcome.trace, fh, separators=(",", ":"))
        print(f"# trace written to {os.path.relpath(path, ROOT)}")

    if trace:
        ran = LAYERS[args.workload]
        values = dict(outcome.layers)
        for m in wanted:
            if m["name"] not in values:
                layer = m["name"].split(".", 1)[0]
                if layer in ran and layer != "bench":
                    raise RuntimeError(f"{args.workload} ran layer {layer} but did not measure {m['name']}")
                values[m["name"]] = 0.0
        print("# layers not run by this workload report 0: "
              + ", ".join(sorted({m["name"].split(".")[0] for m in wanted} - set(ran) - {"bench"})))
    else:
        values = outcome.end_to_end()
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for name, value in outcome.info.items():
        if isinstance(value, tuple):
            print(f"{name} {value[0]!r} {value[1]}")
        else:
            print(f"# {name} {json.dumps(value)}")
    if not trace:
        setups = outcome.setup_s
        print(f"# setup_s is the median of {len(setups)} set-ups; "
              f"fastest {min(setups)!r} s, slowest {max(setups)!r} s")
    checks = outcome.checks
    print(f"failed_ratio {checks.failed / checks.attempted!r} failed/attempted")
    for message in checks.messages:
        print(f"# FAILED CHECK: {message}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
