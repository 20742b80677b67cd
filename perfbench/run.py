"""Wall-clock benchmark of three repro CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload target-run --seed 0 --seconds 24 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop of ops in
this one process, on one thread: BLAS pools are pinned to one thread
and every execution plan is serial.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
op twice, untraced and traced in alternating order, checks that both
give the same output digest, and reports the per-layer metrics derived
from the spans (``tracing.py``); it also writes the spans and a
Perfetto-loadable trace under ``perfbench/out/``.  See README.md.
"""

import time

#: Set-up is timed from here, before ``repro`` (or numpy) is imported.
T_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

# One thread: must be set before numpy loads its BLAS.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_PATH = HERE / "reference_digests.json"

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Index of the warm-up op: outside the timed set of ops 0, 1, 2, ...
WARMUP = -1
#: Set-ups per run (this process plus fresh-process probes); the median
#: is reported.
SETUP_RUNS = 3
#: Seconds :func:`canary` takes on the reference host (a 2-core shared
#: VM).  End-to-end times are scaled by ``CANARY_REF_S / canary()``
#: measured around each op, so they read as seconds at that host speed.
CANARY_REF_S = 0.003


def canary() -> float:
    """Seconds of a fixed pure-Python loop plus small matmuls (best of
    three): the host's current speed, independent of ``repro``.

    A shared host runs ±25% fast or slow for stretches of seconds to
    minutes; op time divided by the canary time around it moves 3-5x
    less than op time alone.
    """
    import numpy

    matrix = numpy.random.default_rng(0).random((48, 48))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(30000):
            table[i & 255] = acc
            acc += (i * 3) % 7
        for _ in range(20):
            matrix @ matrix
        best = min(best, time.perf_counter() - start)
    return best


@dataclasses.dataclass
class OpRecord:
    """One op: its timed seconds, items, output digest and failure.

    ``scale`` is ``CANARY_REF_S`` over the canary seconds around the op
    (1.0 where no canary was taken).
    """

    index: int
    seconds: float
    items: int
    digest: Optional[str]
    failure: Optional[str]
    scale: float = 1.0


def run_op(
    workload: workloads.Workload,
    seed: int,
    index: int,
    tracer: Optional[tracing.Tracer] = None,
    reference: Optional[Dict[int, str]] = None,
) -> OpRecord:
    """Make op ``index``'s input, run it (timed) and check its output."""
    inp = workload.make_input(workloads.op_seed(seed, index), index)
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
            root = tracer.begin_op(index)
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(root)
                tracer.uninstall()
        checked = workload.check(inp, out)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return OpRecord(index, time.perf_counter() - start, 0, None,
                        f"raised {type(exc).__name__}: {exc}")
    finally:
        workload.cleanup(inp)
    failure = "; ".join(checked.violations) or None
    expected = (reference or {}).get(index)
    if expected is not None and checked.digest != expected:
        failure = f"digest {checked.digest[:12]} != reference {expected[:12]}"
    return OpRecord(index, seconds, checked.items, checked.digest, failure)


def _more(workload, ops: int, busy: float, seconds: float, deadline) -> bool:
    if ops == 0:
        return True
    if time.perf_counter() >= deadline:
        return False
    return busy < seconds or ops % workload.round != 0


def measure(workload, seed: int, seconds: float, reference=None):
    """Closed loop: ops 0, 1, 2, ... until their timed seconds reach
    ``seconds`` and a whole round is done (or the wall clock reaches
    three times ``seconds``); at least one op.  A canary runs between
    ops; each op is scaled by the mean of the canaries around it."""
    records: List[OpRecord] = []
    busy = 0.0
    deadline = time.perf_counter() + 3 * seconds
    before = canary()
    while _more(workload, len(records), busy, seconds, deadline):
        record = run_op(workload, seed, len(records), reference=reference)
        after = canary()
        record.scale = CANARY_REF_S / ((before + after) / 2)
        before = after
        records.append(record)
        busy += record.seconds
    return records


def measure_traced(workload, seed: int, seconds: float, tracer, reference=None):
    """Run each op untraced and traced, alternating which goes first so
    warm state favours neither; stop as :func:`measure` does, counting
    both runs of an op.  A traced digest that differs from its untraced
    twin is a failure of the traced op."""
    plain: List[OpRecord] = []
    traced: List[OpRecord] = []
    busy = 0.0
    deadline = time.perf_counter() + 3 * seconds
    while _more(workload, len(plain), busy, seconds, deadline):
        index = len(plain)
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            record = run_op(
                workload, seed, index,
                tracer if with_trace else None, reference,
            )
            (traced if with_trace else plain).append(record)
            busy += record.seconds
        if traced[index].digest != plain[index].digest:
            traced[index].failure = (
                traced[index].failure or "traced digest differs from untraced"
            )
    return plain, traced


def load_reference(name: str, seed: int) -> Optional[Dict[int, str]]:
    """Committed digests of ``name``'s ops, for the reference seed only."""
    doc = json.loads(REFERENCE_PATH.read_text())
    if seed != doc["seed"]:
        return None
    return {int(k): v for k, v in doc["workloads"].get(name, {}).items()}


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds of a fresh process (import + warm-up op)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                     dir=OUT / "tmp"))
    try:
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir: Path) -> int:
    name, seed = args.workload, args.seed
    workload = workloads.build(name, work_dir)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    reference = load_reference(name, seed)
    warmup = run_op(workload, seed, WARMUP, reference=reference)
    setup_wall_s = time.perf_counter() - T_START
    setup_s = setup_wall_s * CANARY_REF_S / canary()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"perfbench {name}: seed {seed}, {args.seconds:g} s, "
          f"trace {args.trace}, item = {workload.item}")
    print(f"  temp dirs: {work_dir.relative_to(ROOT)} "
          f"({filesystem_of(work_dir)})")
    if warmup.failure is not None:
        print(f"  warm-up FAILED: {warmup.failure}")

    if args.trace:
        tracer = tracing.Tracer()
        origin = time.perf_counter()
        plain, traced = measure_traced(
            workload, seed, args.seconds, tracer, reference
        )
        records = plain + traced
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
        metrics = {
            metric: (value, units[metric])
            for metric, value in tracer.layer_metrics(len(traced)).items()
        }
        metrics["trace.overhead_ratio"] = (
            sum(r.seconds for r in traced) / sum(r.seconds for r in plain),
            "ratio",
        )
        stem = OUT / f"{name}-seed{seed}"
        tracer.write(stem, name, origin, {
            "workload": name, "seed": seed, "ops": len(traced),
            "filesystem": filesystem_of(work_dir),
        })
        print(f"  {len(traced)} ops traced and untraced; spans in "
              f"{stem.relative_to(ROOT)}.spans.json, Perfetto trace in "
              f"{stem.relative_to(ROOT)}.trace.json")
    else:
        records = measure(workload, seed, args.seconds, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups = [setup_s] + [
            probe_setup(name, seed) for _ in range(SETUP_RUNS - 1)
        ]
        items = sum(r.items for r in records if r.failure is None)
        wall = [r.seconds for r in records]
        scaled = [r.seconds * r.scale for r in records]
        metrics = {
            "items_per_s": (items / sum(scaled), "items/s"),
            "op_p50_s": (statistics.median(scaled), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"  ops: {len(records)} timed (+1 warm-up); host speed "
              f"{statistics.median(r.scale for r in records):.3f}x the "
              f"reference (times below are scaled to it)")
        print(f"  unscaled wall clock: items_per_s {items / sum(wall):.6g}, "
              f"op_p50_s {statistics.median(wall):.6g}, "
              f"setup_s {setup_wall_s:.6g} (this process)")

    failed = sum(r.failure is not None for r in records)
    failed += warmup.failure is not None
    attempted = len(records) + 1
    for r in records:
        if r.failure is not None:
            print(f"  op {r.index} FAILED: {r.failure}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
