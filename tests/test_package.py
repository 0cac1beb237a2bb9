"""Package-level behaviour: lazy exports."""

import os
import subprocess
import sys

import pytest

import netshaper
from netshaper import shaping


def test_exports_load_on_first_access():
    assert netshaper.Shaper is shaping.Shaper
    assert "Shaper" in netshaper.__all__
    with pytest.raises(AttributeError):
        netshaper.no_such_name


def test_tunnel_import_skips_numpy():
    # The package exports load lazily, so a tunnel process never loads numpy.
    src = os.path.dirname(os.path.dirname(netshaper.__file__))
    code = "import sys, netshaper.tunnel; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
