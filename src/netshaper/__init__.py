"""Differentially private traffic shaping toolkit.

Submodules: traces (stream ingestion and distances), dpcore (noise calibration
and accounting), shaping (the FIFO with TTL and the per-interval shaping step),
sim (trace-driven overhead simulator), tunnel (two-endpoint shaping proxy),
cli (command-line frontend).

The names below are imported on first access (PEP 562), so importing one
submodule, such as ``netshaper.tunnel``, does not load numpy through
``sim`` and ``traces``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "dpcore": (
        "DpParams",
        "PrivacyReport",
        "compose_to_dp",
        "gaussian_sigma",
        "rdp_epsilon_gaussian",
        "sample_gaussian",
        "sigma_for_budget",
        "tamaraw_gamma_bound",
    ),
    "shaping": ("ShapedBuffer", "Shaper", "dp_query"),
    "sim": ("SimConfig", "SimResult", "overhead_sweep", "simulate"),
    "traces": (
        "BurstVector",
        "PacketRecord",
        "Stream",
        "neighboring_distance",
        "pairwise_distance_distribution",
        "parse_trace",
        "windowed_repr",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
