"""Command-line frontend.

Durations are given in milliseconds, sizes in bytes, no unit suffixes. Data
goes to stdout, diagnostics to stderr; exit codes: 0 success, 1 usage error,
2 I/O error, 3 validation error. NETSHAPER_LOG (error|warn|info|debug|trace)
controls stderr verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import signal
import sys
import time

from . import sim as simmod
from .dpcore import DpParams, compose_to_dp, sigma_for_budget, tamaraw_gamma_bound
from .errors import (
    AuthError,
    ConfigError,
    NetshaperError,
    ParameterMismatch,
    SessionError,
    TraceParseError,
)
from .sim import SimConfig, intervals_to_csv, overhead_sweep, simulate, sweep_to_csv
from .traces import pairwise_distance_distribution, parse_trace
from .tunnel.config import load_config
from .tunnel.endpoint import TunnelEndpoint

log = logging.getLogger("netshaper.cli")

MS = 1_000_000

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

TRACE_LEVEL = 5

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
    "trace": TRACE_LEVEL,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _setup_logging():
    logging.addLevelName(TRACE_LEVEL, "TRACE")
    level_name = os.environ.get("NETSHAPER_LOG", "warn").lower()
    level = _LOG_LEVELS.get(level_name)
    if level is None:
        raise ConfigError(f"NETSHAPER_LOG must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}")
    logging.basicConfig(level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")


def _fail_line(code: int, message: str) -> int:
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def _ms_arg(value: str) -> int:
    try:
        ms = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected milliseconds as a number, got {value!r}")
    if ms <= 0:
        raise argparse.ArgumentTypeError("duration must be positive")
    return int(round(ms * MS))


def _float_list(value: str) -> list[float]:
    try:
        return [float(part) for part in value.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated number list, got {value!r}")


def _int_list(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {value!r}")


def _add_dp_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--epsilon", type=float, required=True, help="per-query privacy loss")
    parser.add_argument("--delta", type=float, required=True, help="per-query failure probability")
    parser.add_argument("--delta-w", type=float, required=True, help="neighboring distance bound, bytes")
    parser.add_argument("--T-ms", dest="t_ms", type=_ms_arg, required=True, help="shaping interval")
    parser.add_argument("--W-ms", dest="w_ms", type=_ms_arg, required=True, help="neighboring window")
    parser.add_argument("--cutoff-bytes", type=float, default=None, help="shaped length clamp")


def _params_from_args(args) -> DpParams:
    return DpParams(
        epsilon_t=args.epsilon,
        delta_t=args.delta,
        delta_w=args.delta_w,
        interval=args.t_ms,
        window=args.w_ms,
        cutoff=args.cutoff_bytes if args.cutoff_bytes is not None else math.inf,
    )


def _add_sim_flags(parser: argparse.ArgumentParser):
    _add_dp_flags(parser)
    parser.add_argument("--trace", action="append", required=True, help="trace CSV; one flow per file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma", type=float, default=None, help="override the calibrated noise")
    parser.add_argument("--flows", type=int, default=None, help="declared flow count for the cutoff")
    parser.add_argument("--per-flow-cutoff", type=float, default=None)
    parser.add_argument("--cutoff-mode", choices=simmod.CUTOFF_MODES, default="scaled")
    parser.add_argument("--horizon-ms", type=_ms_arg, default=None)
    parser.add_argument("--out", default=None, help="output path prefix")


def _sim_config(args) -> SimConfig:
    return SimConfig(
        params=_params_from_args(args),
        seed=args.seed,
        flows=args.flows,
        per_flow_cutoff=args.per_flow_cutoff,
        cutoff_mode=args.cutoff_mode,
        sigma=args.sigma,
        horizon=args.horizon_ms,
    )


def _load_streams(paths):
    return [parse_trace(path) for path in paths]


def cmd_simulate(args) -> int:
    result = simulate(_load_streams(args.trace), _sim_config(args))
    summary = json.dumps(result.summary(), sort_keys=True)
    if args.out:
        with open(f"{args.out}.intervals.csv", "w", encoding="utf-8") as fh:
            fh.write(intervals_to_csv(result))
        with open(f"{args.out}.summary.json", "w", encoding="utf-8") as fh:
            fh.write(summary + "\n")
    print(summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = args.values
    if args.axis == "T":  # durations are milliseconds on the command line
        values = [v * MS for v in values]
    rows = overhead_sweep(_load_streams(args.trace), _sim_config(args), args.axis, values)
    text = sweep_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_privacy_curve(args) -> int:
    if (args.sigmas is None) == (args.epsilons is None):
        raise UsageError("provide exactly one of --sigmas or --epsilons")
    lines = ["delta_w,sigma,queries,epsilon_total"]
    for queries in args.queries:
        if args.sigmas is not None:
            sigmas = args.sigmas
        else:
            sigmas = [
                sigma_for_budget(args.delta_w, eps, args.delta, queries) for eps in args.epsilons
            ]
        for sigma in sigmas:
            report = compose_to_dp(args.delta_w, sigma, queries, args.delta)
            lines.append(f"{args.delta_w!r},{sigma!r},{queries},{report.epsilon_total!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_sigma(args) -> int:
    sigma = sigma_for_budget(args.delta_w, args.epsilon, args.delta, args.queries)
    report = compose_to_dp(args.delta_w, sigma, args.queries, args.delta)
    print(
        json.dumps(
            {
                "sigma": sigma,
                "queries": args.queries,
                "epsilon_target": args.epsilon,
                "epsilon_total": report.epsilon_total,
                "alpha_star": report.alpha_star,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_distance(args) -> int:
    names = sorted(
        name for name in os.listdir(args.trace_dir) if name.endswith(".csv")
    )
    streams = [parse_trace(os.path.join(args.trace_dir, name)) for name in names]
    if args.direction is not None:
        streams = [s.filter_direction(args.direction) for s in streams]
    table = pairwise_distance_distribution(streams, args.w_ms, args.t_ms)
    text = "pairs,p50,p90,p99,max\n" + (
        f"{table.pairs},{table.p50},{table.p90},{table.p99},{table.max}\n"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_tamaraw(args) -> int:
    gamma = tamaraw_gamma_bound(args.epsilon, args.corpus_size)
    print(json.dumps({"epsilon": args.epsilon, "n": args.corpus_size, "gamma": gamma}, sort_keys=True))
    return EXIT_OK


def _tick_line(k, dp_len, payload, dummy, wire):
    # Only the public fields: the payload/dummy split is what the shaper hides.
    print(f"tick k={k} dp_len={dp_len} wire={wire}", flush=True)


def cmd_tunnel(role: str, args) -> int:
    cfg = load_config(args.config)
    state = {"endpoint": None, "stop": False}

    def on_signal(signum, frame):
        state["stop"] = True
        endpoint = state["endpoint"]
        if endpoint is not None and endpoint.session_ready.is_set():
            log.info("signal %d: closing gracefully", signum)
            endpoint.shutdown()
        else:
            raise KeyboardInterrupt

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    backoff = 0.5
    while not state["stop"]:
        endpoint = TunnelEndpoint(cfg, role, tick_log=_tick_line)
        state["endpoint"] = endpoint
        try:
            endpoint.start()
            backoff = 0.5
            endpoint.finished.wait()
        except (AuthError, ParameterMismatch) as exc:
            endpoint.stop()
            raise ConfigError(str(exc)) from exc
        except KeyboardInterrupt:
            endpoint.stop()
            break
        except (SessionError, OSError) as exc:
            log.warning("session failed: %s; retrying in %.1fs", exc, backoff)
            endpoint.stop()
            if state["stop"]:
                break
            time.sleep(backoff)
            backoff = min(backoff * 2, 10.0)
            continue
        endpoint.stop()
        if state["stop"] or role == "connect":
            break
        log.info("session ended; waiting for the next peer")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="netshaper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="shape a trace and report overhead metrics")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate across a parameter range")
    _add_sim_flags(p)
    p.add_argument("--axis", required=True, choices=simmod.SWEEP_AXES)
    p.add_argument("--values", type=_float_list, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("privacy-curve", help="composed privacy loss over noise/query grids")
    p.add_argument("--delta-w", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--queries", type=_int_list, required=True)
    p.add_argument("--sigmas", type=_float_list, default=None)
    p.add_argument("--epsilons", type=_float_list, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_privacy_curve)

    p = sub.add_parser("sigma", help="calibrate noise for a total privacy budget")
    p.add_argument("--delta-w", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("distance", help="pairwise neighboring distances of a trace directory")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--W-ms", dest="w_ms", type=_ms_arg, required=True)
    p.add_argument("--T-ms", dest="t_ms", type=_ms_arg, required=True)
    p.add_argument("--direction", choices=("in", "out"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("tamaraw", help="classifier-accuracy bound implied by an epsilon")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--corpus-size", type=int, required=True)
    p.set_defaults(func=cmd_tamaraw)

    for role in ("serve", "connect"):
        p = sub.add_parser(f"tunnel-{role}", help=f"run a tunnel endpoint ({role} side)")
        p.add_argument("--config", required=True)
        p.set_defaults(func=lambda args, role=role: cmd_tunnel(role, args))

    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return _fail_line(EXIT_USAGE, str(exc))
    except (TraceParseError, ConfigError, NetshaperError, ValueError) as exc:
        return _fail_line(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        return _fail_line(EXIT_IO, str(exc))
    except KeyboardInterrupt:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
