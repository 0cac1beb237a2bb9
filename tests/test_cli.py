"""CLI behaviour: flags, exit codes, output formats."""

import json
import math
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from netshaper.cli import main

MB = 1e6


def write_trace(path, points):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_ns,len_bytes,flow_id,dir\n")
        for t, n in points:
            fh.write(f"{t},{n},1,out\n")
    return str(path)


@pytest.fixture
def trace_file(tmp_path):
    return write_trace(tmp_path / "t.csv", [(i * 2_000_000, 1000) for i in range(100)])


SIM_FLAGS = [
    "--epsilon", "1", "--delta", "1e-6", "--delta-w", "2500000",
    "--T-ms", "1000", "--W-ms", "5000", "--seed", "7",
]


def test_simulate_summary(trace_file, capsys, tmp_path):
    out_prefix = str(tmp_path / "run")
    code = main(["simulate", "--trace", trace_file, *SIM_FLAGS, "--out", out_prefix])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert "bandwidth_overhead" in summary
    assert summary["seed"] == 7
    assert os.path.exists(out_prefix + ".intervals.csv")
    assert os.path.exists(out_prefix + ".summary.json")


def test_simulate_deterministic(trace_file, capsys, tmp_path):
    def run(prefix):
        assert main(["simulate", "--trace", trace_file, *SIM_FLAGS, "--out", prefix]) == 0
        out = capsys.readouterr().out
        with open(prefix + ".intervals.csv", "rb") as fh:
            csv_bytes = fh.read()
        return out, csv_bytes

    first = run(str(tmp_path / "a"))
    second = run(str(tmp_path / "b"))
    assert first == second


def test_simulate_rejects_window_mismatch(trace_file, capsys):
    code = main(
        ["simulate", "--trace", trace_file, "--epsilon", "1", "--delta", "1e-6",
         "--delta-w", "1000", "--T-ms", "1000", "--W-ms", "2500"]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 3
    assert "multiple" in err["error"]


def test_simulate_missing_trace_is_io_error(capsys):
    code = main(["simulate", "--trace", "/nonexistent/trace.csv", *SIM_FLAGS])
    assert code == 2


def test_usage_error_missing_flag(capsys):
    assert main(["simulate", "--trace", "x.csv"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 1


def test_bad_log_level_env(monkeypatch, capsys, trace_file):
    monkeypatch.setenv("NETSHAPER_LOG", "loud")
    assert main(["tamaraw", "--epsilon", "1", "--corpus-size", "9"]) == 3


def test_sweep_axis_choices(trace_file, capsys):
    code = main(
        ["sweep", "--trace", trace_file, *SIM_FLAGS, "--axis", "delta", "--values", "1"]
    )
    assert code == 1


def test_sweep_happy_path(trace_file, capsys):
    code = main(
        ["sweep", "--trace", trace_file, *SIM_FLAGS, "--sigma", "1000",
         "--axis", "T", "--values", "1000,2500,5000"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("axis,value,")


def test_sigma_command(capsys):
    code = main(["sigma", "--delta-w", "2500000", "--epsilon", "1", "--delta", "1e-6", "--queries", "5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(29.9 * MB, rel=0.01)
    assert payload["epsilon_total"] <= 1.0


def test_privacy_curve_golden_point(capsys):
    assert main(["sigma", "--delta-w", "2500000", "--epsilon", "1", "--delta", "1e-6", "--queries", "5"]) == 0
    sigma = json.loads(capsys.readouterr().out)["sigma"]
    code = main(
        ["privacy-curve", "--delta-w", "2500000", "--delta", "1e-6",
         "--queries", "300", "--sigmas", str(sigma)]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta_w,sigma,queries,epsilon_total"
    eps_total = float(lines[1].split(",")[3])
    assert eps_total == pytest.approx(8.92, rel=0.05)


def test_privacy_curve_monotone_in_queries(capsys):
    code = main(
        ["privacy-curve", "--delta-w", "1000", "--delta", "1e-6",
         "--queries", "1,10,100,1000", "--sigmas", "5000"]
    )
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    eps = [float(r.split(",")[3]) for r in rows]
    assert eps == sorted(eps)


def test_privacy_curve_grid_refinement(capsys):
    args = ["privacy-curve", "--delta-w", "1000", "--delta", "1e-6", "--queries", "10"]
    assert main(args + ["--sigmas", "1000,2000"]) == 0
    coarse = capsys.readouterr().out.strip().splitlines()[1:]
    assert main(args + ["--sigmas", "1000,1500,2000"]) == 0
    fine = capsys.readouterr().out.strip().splitlines()[1:]
    assert set(coarse) <= set(fine)


def test_privacy_curve_requires_one_grid(capsys):
    assert main(["privacy-curve", "--delta-w", "1", "--delta", "1e-6", "--queries", "1"]) == 1


def test_distance_needs_two_traces(tmp_path, capsys):
    write_trace(tmp_path / "a.csv", [(0, 100)])
    code = main(["distance", "--trace-dir", str(tmp_path), "--W-ms", "1", "--T-ms", "1"])
    assert code == 3


def test_distance_identical_traces(tmp_path, capsys):
    write_trace(tmp_path / "a.csv", [(0, 100), (1_000_000, 50)])
    write_trace(tmp_path / "b.csv", [(0, 100), (1_000_000, 50)])
    code = main(["distance", "--trace-dir", str(tmp_path), "--W-ms", "2", "--T-ms", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["pairs,p50,p90,p99,max", "1,0,0,0,0"]


def test_distance_constructed_corpus(tmp_path, capsys):
    # single-burst traces at t=0 with known sizes: pairwise distances are the
    # absolute size differences
    sizes = [100, 300, 600]
    for i, size in enumerate(sizes):
        write_trace(tmp_path / f"{i}.csv", [(0, size)])
    code = main(["distance", "--trace-dir", str(tmp_path), "--W-ms", "5", "--T-ms", "5"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    pairs, p50, p90, p99, mx = (int(x) for x in row.split(","))
    assert (pairs, p50, mx) == (3, 300, 500)


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "distance")


@pytest.mark.parametrize("w_ms,t_ms", [(10, 10), (100, 10), (500, 100), (1000, 250)])
@pytest.mark.parametrize("direction", [None, "in"])
def test_distance_matches_golden_csvs(w_ms, t_ms, direction, tmp_path, capsys):
    # shifted, unaligned, epoch-ns and tied traces with mixed directions
    name = f"w{w_ms}-t{t_ms}" + (f"-{direction}" if direction else "") + ".csv"
    args = ["distance", "--trace-dir", os.path.join(GOLDEN, "traces"), "--W-ms", str(w_ms)]
    args += ["--T-ms", str(t_ms), "--out", str(tmp_path / name)]
    args += ["--direction", direction] if direction else []
    assert main(args) == 0
    with open(os.path.join(GOLDEN, "expected", name), "rb") as fh:
        expect = fh.read()
    assert (tmp_path / name).read_bytes() == expect
    assert capsys.readouterr().out.encode() == expect


def test_tamaraw_command(capsys):
    code = main(["tamaraw", "--epsilon", "1", "--corpus-size", "96"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == pytest.approx(math.e / 96, rel=1e-12)


def test_tunnel_serve_malformed_psk(tmp_path, capsys):
    config = tmp_path / "t.conf"
    config.write_text(
        "listen_addr=127.0.0.1:1\npeer_addr=127.0.0.1:2\npsk_hex=nothex\n"
        "T_ms=10\nW_ms=100\ndelta_w_bytes=1000\nepsilon=1\ndelta=1e-6\nflows_max=4\n"
    )
    assert main(["tunnel-serve", "--config", str(config)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 3


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_tunnel_processes_pipe_and_sigint(tmp_path):
    tunnel_port, app_port = free_port(), free_port()
    sink = socket.create_server(("127.0.0.1", 0))
    sink_port = sink.getsockname()[1]
    psk = "ab" * 32
    base = (
        f"psk_hex={psk}\nT_ms=20\nT_prep_ms=10\nT_enq_ms=4\nW_ms=2000\n"
        "delta_w_bytes=25000\nepsilon=2\ndelta=1e-6\ncutoff_bytes=400000\nflows_max=8\n"
    )
    serve_conf = tmp_path / "serve.conf"
    serve_conf.write_text(
        f"listen_addr=127.0.0.1:{tunnel_port}\npeer_addr=127.0.0.1:{tunnel_port}\n" + base
    )
    connect_conf = tmp_path / "connect.conf"
    connect_conf.write_text(
        f"listen_addr=127.0.0.1:{tunnel_port}\npeer_addr=127.0.0.1:{tunnel_port}\n"
        f"app_listen_addr=127.0.0.1:{app_port}\n" + base
    )

    def spawn(role, conf):
        return subprocess.Popen(
            [sys.executable, "-m", "netshaper.cli", f"tunnel-{role}", "--config", str(conf)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    serve_proc = spawn("serve", serve_conf)
    time.sleep(0.4)
    connect_proc = spawn("connect", connect_conf)
    try:
        payload = os.urandom(200_000)
        deadline = time.monotonic() + 15
        app = None
        while app is None and time.monotonic() < deadline:
            try:
                app = socket.create_connection(("127.0.0.1", app_port), timeout=1)
            except OSError:
                time.sleep(0.1)
        assert app is not None, "connect endpoint never opened its app listener"
        app.sendall(
            json.dumps({"dst_host": "127.0.0.1", "dst_port": sink_port, "reliability": True}).encode()
            + b"\n"
        )
        response = json.loads(app.makefile("rb").readline())
        assert response["ok"]
        sink.settimeout(15)
        app.sendall(payload)
        app.shutdown(socket.SHUT_WR)
        conn, _ = sink.accept()
        got = bytearray()
        conn.settimeout(15)
        while len(got) < len(payload):
            chunk = conn.recv(65536)
            if not chunk:
                break
            got += chunk
        assert bytes(got) == payload
        app.close()
        conn.close()
    finally:
        for proc in (connect_proc, serve_proc):
            proc.send_signal(signal.SIGINT)
        outs = {}
        for name, proc in (("connect", connect_proc), ("serve", serve_proc)):
            try:
                stdout, stderr = proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                stdout, stderr = proc.communicate()
                pytest.fail(f"{name} endpoint did not exit after SIGINT: {stderr[-2000:]}")
            outs[name] = (proc.returncode, stdout, stderr)
        sink.close()
    for name, (code, stdout, stderr) in outs.items():
        assert code == 0, f"{name} exited {code}: {stderr[-2000:]}"
        assert "tick k=" in stdout
        assert "payload=" not in stdout and "dummy=" not in stdout
