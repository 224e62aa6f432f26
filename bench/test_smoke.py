"""Smoke test of the benchmark harness on the smallest instances.

    python -m pytest bench/test_smoke.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import purecomb.cli  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _runner(name, work):
    wl = workloads.WORKLOADS[name]
    return harness.Runner(wl.ops(wl.setup(7, wl.smoke), work), work, harness.SpeedProbe())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_passes_check_clean(name, tmp_path):
    runner = _runner(name, tmp_path / "work")
    first, second = runner.run_pass(0), runner.run_pass(1)
    assert first.failures == [] and second.failures == []
    # the kinds BENCHMARK.json gates run on every workload
    assert all(first.times[f"{kind}_s"] > 0 for kind in ("verify", "plug", "write", "choi"))
    assert first.digests and first.digests == second.digests


def test_traced_pass_counts_and_restores(tmp_path):
    runner = _runner("twoslot", tmp_path / "work")
    original = purecomb.cli.main
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = runner.run_pass(0, tracer)
        summary = tracer.summary(0)
    finally:
        tracer.uninstall()
    assert result.failures == []
    assert purecomb.cli.main is original
    assert summary["cli.main.calls"] == sum(op.name.split()[0] in
                                            ("build", "verify", "decompose", "assemble")
                                            for op in runner.ops)
    assert summary["subspaces.from_spanning.in_cols"] > 0
    assert 0 < summary["subspaces.from_spanning.kept_ratio"] <= 1
    # checks run between ops and leave no spans
    assert summary["spaces.phase_distance.calls"] == 0
    busy = sum(summary[f"{mod}.self_s"] for mod in tracing.WRAPPED)
    assert 0 < busy <= result.wall["pass_s"]


def test_failures_are_counted(tmp_path):
    work = tmp_path / "work"
    count = iter(range(100))

    def write(state):
        (work / "out.txt").write_text(str(next(count)))

    def crash(state):
        raise MemoryError

    ops = [harness.Op("write", "write", write, writes=("out.txt",)),
           harness.Op("crash", "choi", crash),
           harness.cli_op("bad usage", "verify", ["verify", work / "missing.json",
                                                  "--kind", "pure-comb"])]
    runner = harness.Runner(ops, work, harness.SpeedProbe())
    first, second = runner.run_pass(0), runner.run_pass(1)
    assert [f["op"] for f in first.failures] == ["crash", "bad usage"]
    assert "MemoryError" in first.failures[0]["error"]
    assert "exit code 2" in first.failures[1]["error"]
    assert [f["op"] for f in second.failures] == ["write", "crash", "bad usage"]


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "twoslot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
