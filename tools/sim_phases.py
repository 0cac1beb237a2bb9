"""Time the phases of ``simulate`` on the benchmark's seeded simulator inputs.

Usage (from the repository root):

    PYTHONPATH=src python tools/sim_phases.py [--seed N] [--calls N]

Builds the ``sim-web-256`` and ``sim-video-1`` inputs and configurations
that ``perfbench/`` uses (imported, not changed), then calls ``simulate`` on
each ``--calls`` times. The set-up is split in two: ``gen``'s point
generation, and the ``Stream`` building in ``gen.to_stream``, which is
wrapped with a ``perf_counter`` timer. For the run, each phase helper of
``netshaper.sim`` (the arrival merge, the tick loop, the waits) is wrapped
the same way; the rest of a call is "other". Prints the set-up once and the
median per call of each phase, in ms, unscaled by host speed.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import offline  # noqa: E402
import netshaper.sim as sim  # noqa: E402

PHASES = ("_merge_arrivals", "_run_ticks", "_waits")


def timed(module, name: str, spent: dict[str, float]):
    """``module.name`` wrapped to add its call time to ``spent[name]``."""
    original = getattr(module, name)

    def wrapper(*args):
        t0 = perf_counter()
        try:
            return original(*args)
        finally:
            spent[name] += perf_counter() - t0

    return wrapper


def inputs(seed: int):
    """Each input's streams and its set-up split, in ms: points, then streams."""
    makers = {
        "sim-web-256": lambda: gen.web_streams(seed, *offline.SIZES["sim-web-256"]["full"]),
        "sim-video-1": lambda: gen.video_streams(seed, offline.SIZES["sim-video-1"]["full"]),
    }
    original = gen.to_stream
    made = {}
    for name, make in makers.items():
        spent = {"to_stream": 0.0}
        gen.to_stream = timed(gen, "to_stream", spent)
        try:
            t0 = perf_counter()
            streams = make()
            total = perf_counter() - t0
        finally:
            gen.to_stream = original
        built = spent["to_stream"]
        made[name] = streams, {"gen points": (total - built) * 1e3, "Stream build": built * 1e3}
    return made


def time_phases(streams, cfg, calls: int) -> dict[str, float]:
    """Median ms per call of each phase, of the whole call and of the rest."""
    spent = dict.fromkeys(PHASES, 0.0)
    originals = {name: getattr(sim, name) for name in PHASES}
    rows: dict[str, list[float]] = {name: [] for name in (*PHASES, "other", "call")}
    try:
        for name in PHASES:
            setattr(sim, name, timed(sim, name, spent))
        for _ in range(calls):
            for name in PHASES:
                spent[name] = 0.0
            t0 = perf_counter()
            sim.simulate(streams, cfg)
            call = perf_counter() - t0
            for name in PHASES:
                rows[name].append(spent[name] * 1e3)
            rows["other"].append((call - sum(spent.values())) * 1e3)
            rows["call"].append(call * 1e3)
    finally:
        for name, fn in originals.items():
            setattr(sim, name, fn)
    return {name: statistics.median(v) for name, v in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--calls", type=int, default=8)
    args = parser.parse_args(argv)
    cfg = sim.SimConfig(offline.SIM_PARAMS, seed=args.seed, per_flow_cutoff=offline.SIM_PER_FLOW_CUTOFF)
    results = {
        name: setup | time_phases(streams, cfg, args.calls)
        for name, (streams, setup) in inputs(args.seed).items()
    }
    print(f"seed {args.seed}, median of {args.calls} calls, ms")
    print(f"{'phase':<16}" + "".join(f"{name:>14}" for name in results))
    for phase in next(iter(results.values())):
        print(f"{phase:<16}" + "".join(f"{r[phase]:>14.1f}" for r in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
