"""Op runner: times each op of a workload pass, checks its output outside
the timed region, and records the digests of the files it writes.

Each op time is reported twice: as wall time, and scaled to a reference
machine speed.  A shared 2-core host was seen to run the same code up to
~1.7x slower for stretches of seconds to minutes, as other tenants load it;
wall medians of 36-s runs then spread 30-45% across runs.  A
fixed kernel that does not touch purecomb (complex SVDs, an interpreter
loop, JSON encoding) is timed between ops, and each op's wall time is
multiplied by REF_KERNEL_S over the kernel time around it.  A change to
purecomb moves the scaled time as it moves the wall time; a slow phase of
the host moves both the op and the kernel and cancels.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import numpy as np

import purecomb.cli
import purecomb.io
import purecomb.spaces

# Op kinds; each end-to-end metric "<kind>_s" sums one kind over a pass.
KINDS = ("build", "verify", "decompose", "assemble", "plug", "write", "choi")
PHASE_TOL = 1e-8
REF_KERNEL_S = 0.03  # the kernel's time in the host's fast phase: 2 cores, Python 3.11, numpy 2.4
PROBE_INTERVAL_S = 0.5
SMOOTH_S = 1.5  # kernel samples this close to an op set its scale


class SpeedProbe:
    """Samples the reference kernel's time through a run and scales wall
    times by the mean kernel time sampled around them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._pairs = [[x / 7, x / 3] for x in range(8000)]
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.sample()

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(8):
            np.linalg.svd(self._mat)
        total = 0
        for i in range(30000):
            total += i * i
        json.dumps(self._pairs)
        return time.perf_counter() - start

    def sample(self) -> None:
        """Time the kernel unless the last sample is recent."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= PROBE_INTERVAL_S:
            self.samples.append((time.perf_counter(), self._kernel()))

    def scaled(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` at reference speed.  Callers
        sample right after ``end``, so the window is never empty."""
        near = [k for t, k in self.samples if start - SMOOTH_S <= t <= end + SMOOTH_S]
        return (end - start) * REF_KERNEL_S / (sum(near) / len(near))


class CheckError(Exception):
    """An op's output did not pass its check."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One timed call.  ``run(state)`` is timed; ``check(result, state)`` runs
    afterwards and raises CheckError.  ``state`` is a dict shared by the ops
    of one pass, so a later check can compare against an earlier result.
    ``writes`` are glob patterns, relative to the work directory, of the
    files the op writes."""

    name: str
    kind: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], None] | None = None
    writes: tuple[str, ...] = ()


@dataclasses.dataclass(frozen=True)
class CliResult:
    rc: int
    report: str
    error: str


def invoke(argv: list[str]) -> CliResult:
    """Run the CLI in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = purecomb.cli.main(argv)
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(name, kind, argv, rc=0, verdict="pass", writes=(), check=None) -> Op:
    """A CLI command run with --json; it must exit with ``rc`` and report
    ``verdict``, then pass ``check(report, state)`` if given."""

    def run(state):
        return invoke([str(a) for a in argv] + ["--json"])

    def check_cli(result: CliResult, state):
        if result.rc != rc:
            raise CheckError(f"exit code {result.rc}, expected {rc}: {result.error.strip()}")
        try:
            report = json.loads(result.report)
        except json.JSONDecodeError as exc:
            raise CheckError(f"no JSON report on stdout: {exc}") from None
        if report.get("verdict") != verdict:
            raise CheckError(f"verdict {report.get('verdict')!r}, expected {verdict!r}")
        if check is not None:
            check(report, state)

    return Op(name, kind, run, check_cli, tuple(writes))


def load(path):
    return purecomb.io.load_matrix(path)


def expect_close(got, want, what: str) -> None:
    dist = purecomb.spaces.phase_distance(got, want)
    if not dist <= PHASE_TOL:
        raise CheckError(f"{what}: phase distance {dist:.2e} > {PHASE_TOL:g}")


def expect_unitary(op, what: str) -> None:
    ok, res = purecomb.spaces.is_unitary(op, PHASE_TOL)
    if not ok:
        raise CheckError(f"{what} is not unitary (residual {res:.2e})")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclasses.dataclass
class PassResult:
    times: dict[str, float]          # "<kind>_s" sums and "pass_s", at reference speed
    wall: dict[str, float]           # the same as wall times
    op_s: dict[str, float]           # wall time of each op
    elapsed_s: float                 # pass wall time, checks included
    attempted: int
    failures: list[dict]
    digests: dict[str, str]


class Runner:
    """Runs a fixed op list pass after pass in one work directory."""

    def __init__(self, ops: list[Op], work: Path, probe: SpeedProbe):
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise ValueError("op names must be unique")
        self.ops = ops
        self.work = work
        self.probe = probe
        self.first_digests: dict[str, str] = {}

    def run_pass(self, index: int, tracer=None) -> PassResult:
        start_wall = time.perf_counter()
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        state: dict = {}
        times = {f"{kind}_s": 0.0 for kind in KINDS}
        wall = dict(times)
        op_s = {}
        spans = []
        failures: list[dict] = []
        digests: dict[str, str] = {}
        for op in self.ops:
            error = None
            result = None
            self.probe.sample()
            if tracer is not None:
                tracer.op = f"{index}:{op.name}"
            t0 = time.perf_counter()
            try:
                result = op.run(state)
            except Exception:  # MemoryError included: a crashed op is a failed op
                error = traceback.format_exc(limit=-1).strip()
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.op = None
            spans.append((op.kind, t0, t0 + elapsed))
            wall[f"{op.kind}_s"] += elapsed
            op_s[op.name] = elapsed
            self.probe.sample()
            if error is None and op.check is not None:
                try:
                    op.check(result, state)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            for pattern in op.writes:
                for path in sorted(self.work.glob(pattern)):
                    key = path.name
                    digests[key] = sha256(path)
                    first = self.first_digests.setdefault(key, digests[key])
                    if error is None and digests[key] != first:
                        error = f"digest of {key} differs from the first pass"
            if error is not None:
                failures.append({"pass": index, "op": op.name, "error": error})
        self.probe.sample()
        for kind, start, end in spans:
            times[f"{kind}_s"] += self.probe.scaled(start, end)
        for sums in (times, wall):
            sums["pass_s"] = sum(sums[f"{kind}_s"] for kind in KINDS)
        return PassResult(times, wall, op_s, time.perf_counter() - start_wall, len(self.ops),
                          failures, digests)
