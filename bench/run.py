"""Benchmark of the sullivan engine, driven through ``sullivan.cli.main``.

Run from the root of a checkout::

    python3 bench/run.py --workload report_large --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.WHY`` for why each was chosen): ``report_large``,
``report_wide``, ``report_zoo`` and ``selftest_laws``.  One process and one
thread generate all load, in a closed loop: a pass runs the workload's
operations one after another, and passes repeat until ``--seconds`` have
been measured (at least one pass).  Every pass builds fresh model objects,
as every invocation of the command line does.

With ``--trace 0`` the end-to-end metrics are measured, with tracing off:

* ``wall_s``: median seconds of one pass (the highest percentile with at
  least ten passes beyond it and the pass count are printed above the
  result line);
* ``setup_s``: median, over several fresh interpreters, of the seconds to
  import the engine and parse and validate every model file of the workload;
* ``peak_rss_mb``: peak resident memory of this process, which ran the
  workload.

Both times are reported at a reference machine speed.  On a shared 2-vCPU
virtual machine the CPU speed drifted by up to 1.6x over minutes, which
swamped the differences a benchmark must resolve.  So a fixed calibration
kernel (:func:`calibration_kernel`, which shares no code with the engine)
is timed while the passes run, every ``PROBE_PERIOD`` seconds from a
``SIGALRM`` handler whose time is left out, and in each set-up interpreter
right after the set-up; each time is then scaled by
``REFERENCE_KERNEL_S / (median kernel time)``.  The times as measured are
printed as ``wall_s.raw`` and ``setup_s.raw``.  See ``BASELINE.md``.

With ``--trace 1`` the same untraced passes run first, then one more pass
runs with span tracing (``spans.py``) installed; the per-layer metrics come
from that pass, and ``trace.overhead_s`` is its time minus the untraced
median.  The spans are written to ``.bench_out/``.

Every operation's output is checked (``workloads.py``); ``fail_frac`` is the
share of operations that failed.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads
from workloads import BENCH, ROOT, Operation, Workload

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Seconds between two samples of the calibration kernel.
PROBE_PERIOD = 0.25

#: Seconds :func:`calibration_kernel` took on the machine the baseline was
#: recorded on, at its fastest.  Timings are reported at this reference
#: speed: a time measured while the kernel took k seconds is scaled by
#: ``REFERENCE_KERNEL_S / k``.
REFERENCE_KERNEL_S = 0.007

_rng = random.Random(0)
KERNEL_MATRIX = [
    [Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(12)]
    for _ in range(12)
]

#: Fresh interpreters timed for ``setup_s``, after one untimed warm-up that
#: also leaves the byte-code cache in place.
SETUP_REPEATS = 7

SETUP_SCRIPT = """\
import statistics, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sullivan.cli
for path in sys.argv[3:]:
    sullivan.cli.parse_model_file(path)
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
from run import calibration_kernel
kernel = []
for _ in range(5):
    t0 = time.perf_counter()
    calibration_kernel()
    kernel.append(time.perf_counter() - t0)
print(repr(setup), repr(statistics.median(kernel)))
"""


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, op: Operation, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op.label}: {reason}")


def calibration_kernel() -> None:
    """Gauss-Jordan elimination of a fixed 12 x 12 rational matrix: exact
    Fraction arithmetic of the kind the engine does, in code the engine does
    not share, so no change to the engine can move its time."""
    rows = [list(r) for r in KERNEL_MATRIX]
    n = len(rows)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]


class SpeedProbe:
    """Samples how fast this machine runs exact arithmetic while passes run.

    While active, a SIGALRM handler times :func:`calibration_kernel` every
    ``PROBE_PERIOD`` seconds.  :meth:`clock` is ``time.perf_counter`` minus
    the time spent in the handler, so the samples are left out of the times
    measured with it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stolen = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        calibration_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self._stolen += elapsed

    def clock(self) -> float:
        return time.perf_counter() - self._stolen

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_operation(op: Operation, tally: Tally, clock=time.perf_counter) -> float:
    """Run one operation through the public entry point, check its output
    and return the seconds ``cli.main`` took."""
    from sullivan import cli

    out, err = io.StringIO(), io.StringIO()
    reason = None
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
    except Exception as exc:  # any crash of the engine is a failed operation
        reason = f"raised {type(exc).__name__}: {exc}"
    elapsed = clock() - start
    if reason is None:
        reason = op.check(code, out.getvalue())
    tally.record(op, reason)
    return elapsed


def run_pass(wl: Workload, tally: Tally, tracer=None, clock=time.perf_counter) -> float:
    total = 0.0
    for i, op in enumerate(wl.operations):
        if tracer is not None:
            tracer.op_id = i
        total += run_operation(op, tally, clock)
    return total


def run_passes(wl: Workload, seconds: float, tally: Tally, clock=time.perf_counter) -> List[float]:
    """Untraced passes until ``seconds`` of them have been measured."""
    times: List[float] = []
    while not times or sum(times) < seconds:
        times.append(run_pass(wl, tally, clock=clock))
    return times


def measure_setup(files: List[str]) -> Tuple[float, float]:
    """Seconds, in fresh interpreters, of importing the engine and parsing
    every model file of the workload: the median as measured, and the
    median at the reference speed, from the calibration kernel timed in the
    same interpreter right after."""
    argv = [sys.executable, "-c", SETUP_SCRIPT, str(ROOT / "src"), str(BENCH), *files]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            setup, kernel = map(float, done.stdout.split())
            raw.append(setup)
            scaled.append(setup * REFERENCE_KERNEL_S / kernel)
    return statistics.median(raw), statistics.median(scaled)


def tail(times: List[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it, as
    ``(percent, value)``, or None with fewer than eleven samples."""
    n = len(times)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(times)[rank - 1]


def end_to_end(wl: Workload, seconds: float, tally: Tally) -> Dict[str, float]:
    setup_raw, setup = measure_setup(wl.model_files)
    with SpeedProbe() as probe:
        times = run_passes(wl, seconds, tally, probe.clock)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kernel = statistics.median(probe.samples)
    scale = REFERENCE_KERNEL_S / kernel
    print(f"kernel_s = {kernel} s ({len(probe.samples)} samples)")
    print(f"setup_s.raw = {setup_raw} s")
    print(f"wall_s.raw = {statistics.median(times)} s")
    print(f"wall_s.samples = {len(times)} passes")
    t = tail(times)
    if t is None:
        print("wall_s.tail = none (fewer than 11 passes)")
    else:
        print(f"wall_s.p{t[0]:.0f} = {t[1] * scale} s")
    return {
        "wall_s": statistics.median(times) * scale,
        "setup_s": setup,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(wl: Workload, seconds: float, tally: Tally, seed: int) -> Dict[str, float]:
    import spans

    untraced = statistics.median(run_passes(wl, seconds, tally))
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        run_pass(wl, tally, tracer)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{wl.name}-seed{seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        tracer.dump(fh)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".density", ".hit_ratio")):
        return "ratio"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "sullivan" / "__init__.py").is_file():
        print(f"error: no engine source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sullivan

    if Path(sullivan.__file__).resolve().parent != (src / "sullivan").resolve():
        print(f"error: imported sullivan from {sullivan.__file__}", file=sys.stderr)
        return 2

    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as work:
        wl = workloads.build(args.workload, args.seed, Path(work))
        print(f"workload = {wl.name}: {wl.why}")
        print(f"operations per pass = {len(wl.operations)}")
        if args.trace:
            metrics = per_layer(wl, args.seconds, tally, args.seed)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics = end_to_end(wl, args.seconds, tally)
            units = UNITS
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"fail_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted} ratio")
    for reason in tally.reasons:
        print(f"failure: {reason}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
