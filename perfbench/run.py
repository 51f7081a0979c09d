"""catdks benchmark: one workload, one process, one closed-loop client.

Usage (from anywhere; paths are resolved against this file's checkout):

    python3 perfbench/run.py --workload solve-planted --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py and listed in BENCHMARK.json. The run
imports catdks from ``src/`` of the same checkout, sets up the workload's
input pool several times (``setup_s`` is the median), runs one untimed
warm-up op, then measures ops until ``--seconds`` of op time have passed and
the first eight pool inputs have run. Every op output is checked outside
the timed region, and an input that runs again must reproduce the SHA-256 of
its first output.

With ``--trace 0`` the run reports the end-to-end metrics. With ``--trace 1``
it alternates untraced and traced runs of the same inputs and reports the
per-layer metrics of the traced ones (tracing.py), including the traced over
untraced throughput ratio.

Output: a human-readable report, then as the last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
BENCHMARK.json lists for the mode. The full record (environment, samples,
tail percentile, digests, failures) goes to
``.bench_out/<workload>.trace<0|1>.json`` and, for traced runs, every span
to ``.bench_out/<workload>.spans.tsv``. Exit code 0 when every check passed,
1 when an output check failed, 2 when the benchmark could not run.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10   # op_s.tail: highest percentile with this many samples above
# Inputs 0..FIXED_INPUTS-1 run in every untraced run whatever its speed; the
# quality metric and the run's output digest cover exactly these.
FIXED_INPUTS = 8


def _git_commit(root: Path):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cold_import() -> None:
    """Start a fresh interpreter that imports the catdks CLI, as a user's
    first command would."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import catdks.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; with too few samples, the maximum at percentile 100."""
    srt = sorted(samples)
    n = len(srt)
    if n <= TAIL_BEYOND:
        return srt[-1], 100.0
    return srt[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Run:
    """Op execution, output checks and repeat digests for one workload run."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.quality: dict[int, object] = {}

    def op(self, i: int, traced: bool = False):
        """Run pool input i once; returns (seconds, Outcome or None)."""
        self.attempted += 1
        label = f"op {self.attempted} (input {i}{', traced' if traced else ''})"
        gc.collect()
        if traced:
            self.tracer.op_id = self.attempted
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            raw = self.wl.op(i)
        except Exception:
            raw = None
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
        finally:
            dt = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        if raw is None:
            return dt, None
        first = i not in self.digests
        try:
            outcome = self.wl.check(i, raw, full=first)
        except Exception:
            self.failures.append(f"{label} check: {traceback.format_exc(limit=3)}")
            return dt, None
        if first:
            self.digests[i] = outcome.digest
            self.quality[i] = outcome.values.get("quality")
        elif outcome.digest != self.digests[i]:
            outcome.problems.append("output differs from the first run of this input")
        if outcome.problems:
            self.failures.append(f"{label}: " + "; ".join(outcome.problems))
        return dt, outcome

    def digest(self) -> tuple[str, int]:
        """SHA-256 over the per-input digests of the fixed inputs that ran,
        and how many of them there are."""
        covered = [i for i in range(FIXED_INPUTS) if i in self.digests]
        joined = "".join(self.digests[i] for i in covered)
        return hashlib.sha256(joined.encode()).hexdigest(), len(covered)


def _measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Closed loop, untraced: end-to-end metrics except set-up and memory."""
    wl = run.wl
    samples: list[float] = []
    while sum(samples) < seconds or len(samples) < FIXED_INPUTS:
        dt, _ = run.op(len(samples) % wl.pool)
        samples.append(dt)
    tail, tail_pct = _tail(samples)
    name, unit, aggregate = wl.quality
    values = [run.quality.get(i) for i in range(FIXED_INPUTS)]
    quality = aggregate(values) if all(isinstance(v, float) for v in values) \
        else float("nan")
    return {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (tail, "s"),
        name: (quality, unit),
    }, {"samples_s": samples, "tail_percentile": tail_pct,
        "sample_count": len(samples), "quality_per_input": values}


def _measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced runs of the same inputs, alternating which goes
    first; per-layer metrics come from the traced ones."""
    wl, tracer = run.wl, run.tracer
    untraced_s = traced_s = 0.0
    traced_values: list[dict] = []
    pairs = 0
    while untraced_s + traced_s < seconds or pairs == 0:
        i = pairs % wl.pool
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            dt, outcome = run.op(i, traced)
            if traced:
                traced_s += dt
                traced_values.append(outcome.values if outcome else {})
            else:
                untraced_s += dt
        pairs += 1
    metrics = tracer.layer_metrics(pairs, traced_values, untraced_s, traced_s)
    return metrics, {"pairs": pairs, "untraced_s": untraced_s,
                     "traced_s": traced_s, "spans": len(tracer.start)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "catdks" / "__init__.py").is_file():
        print(f"perfbench: no catdks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in BLAS_ENV:     # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import catdks
    if Path(catdks.__file__).resolve().parent != ROOT / "src" / "catdks":
        print(f"perfbench: imported catdks from {catdks.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(wl, tracing.Tracer() if args.trace else None)
    env = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "commit": _git_commit(ROOT),
           "nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{wl.name}-{os.getpid()}"
    try:
        setup_s = []
        for r in range(SETUP_ROUNDS):
            round_dir = work / f"round{r}"
            round_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            _cold_import()
            wl.setup(str(round_dir))
            setup_s.append(time.perf_counter() - t0)
            if r:
                shutil.rmtree(work / f"round{r - 1}")
        run.op(0)   # warm-up: untimed, but checked and its digest kept
        # set-up plus one op, as a user's single CLI command in a fresh process
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            computed, detail = _measure_traced(run, args.seconds)
            run.tracer.write_spans(OUT / f"{wl.name}.spans.tsv")
        else:
            found, detail = _measure(run, args.seconds)
            found["setup_s"] = (statistics.median(setup_s), "s")
            found["fail_ratio"] = (len(run.failures) / run.attempted, "ratio")
            found["peak_rss_mb"] = (peak_rss_mb, "MB")
            computed = {k: {"value": float(v), "unit": u}
                        for k, (v, u) in found.items()}
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload could not run", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for m in wanted:
        got = computed.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print(f"perfbench: metric {m['name']} [{m['unit']}] not computed "
                  f"as listed in BENCHMARK.json", file=sys.stderr)
            return 2
    failed = len(run.failures)
    digest, digested = run.digest()
    record = dict(env, correct=failed == 0, attempted=run.attempted,
                  failed=failed, failures=run.failures, setup_s=setup_s,
                  digest=digest, inputs_digested=digested,
                  input_digests=run.digests, metrics=computed, **detail)
    with open(OUT / f"{wl.name}.trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    print(f"catdks benchmark: {wl.name} seed={args.seed} trace={args.trace} "
          f"commit={env['commit']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas_threads={BLAS_THREADS}")
    for name, m in computed.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in detail:
        print(f"  op_s.tail is p{detail['tail_percentile']:.1f} of "
              f"{detail['sample_count']} samples")
    print(f"  output digest {digest} over inputs 0-{digested - 1}; "
          f"{failed} of {run.attempted} ops failed")
    for line in run.failures:
        print("  FAILED " + line.replace("\n", "\n    "))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {m["name"]: computed[m["name"]] for m in wanted}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
