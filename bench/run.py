"""Benchmark of involab: seeded CLI workloads, timed end to end, with a
separate traced run that splits the time over the package's modules.

Run from the repository root:

    python3 bench/run.py --workload surface --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``surface``, ``free-rank``, ``cover`` and
``envelope``. The program is imported from ``src/`` next to this
directory and nowhere else; without it the benchmark exits with code 2
before printing a result.

One run: write the seed's inputs under ``.bench_work/``, then repeat
passes over the job list in this single-threaded process until
``--seconds`` is spent (at least two passes). Each job calls
``involab.cli.main(argv)`` with stdout captured, or ``fgenus.H(g)``.
Outputs of the first pass go through the oracles in oracles.py; later
passes must reproduce them byte for byte. A job fails on an exception,
a nonzero exit code, an oracle rejection or a changed output, and the
run is correct only if no job fails. Calls that hit the one known
defect (``workloads.KNOWN_DEFECT``) are not jobs: they run once before
timing, and the ``info`` line counts how many raised. In the first gaps
between passes (and after the last, if the passes were too few), sixteen
fresh interpreters in turn time ``import involab.cli`` (``setup_s``).

The host changes the speed it gives this process from second to second,
by up to twice. So a fixed piece of reference work, which does not touch
involab, is timed before each job and after the last, and each job's
time is scaled to the speed at which that work takes ``REFERENCE_S``;
so is each set-up sample. Times below are scaled times; the ``info``
line also gives the unscaled wall time and the speed seen.

With ``--trace 0`` the last line reports the end-to-end metrics:
``wall_s`` (one pass over the job list, summed from each job's median
over passes), ``job_p50_ms`` and ``job_tail_ms`` (those per-job times at
the median and at the workload's tail percentile, the highest one with
at least ten jobs and a tenth of the jobs beyond it), ``setup_s``
(median) and ``peak_rss_mb``.
With ``--trace 1`` untraced and traced passes alternate and the last
line reports per-layer self times (unscaled) and counts per traced pass
(medians over traced passes), plus ``trace.overhead_s``, the traced
minus the untraced ``wall_s``. The lines before it give each metric with
its unit, and an ``info`` line with the tail percentile, failed_frac, the
known-defect probes, the slowest job, the ``src/`` line count, the
Python version and CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PER_GAP = 4
SETUP_SAMPLES = 16  # set-up samples per run, taken in the first gaps between passes
MIN_PASSES = 2
TAIL_JOBS = 10
REFERENCE_S = 0.0002  # time of reference_work() at the reference speed


def reference_work() -> int:
    """A fixed piece of pure-Python work that does not touch involab:
    integer arithmetic, a set, a dict and a sort."""
    acc, seen, table = 0, set(), {}
    for i in range(500):
        x = (i * 2654435761) & 0xFFFFF
        acc ^= x >> (i & 7)
        seen.add(x & 0x3FF)
        table[x & 0xFF] = table.get(x & 0xFF, 0) + 1
    rows = sorted(table.items(), key=lambda kv: kv[1])
    return acc + len(seen) + len(rows)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def setup_times(count: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import
    involab.cli`` returns, for ``count`` interpreters started in turn,
    each scaled to the reference speed seen just before and after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import time, involab.cli, involab\n"
        "t = time.monotonic()\n"
        f"assert involab.__file__.startswith({str(SRC)!r}), involab.__file__\n"
        "print(repr(t))\n"
    )
    times = []
    for _ in range(count):
        before = time_reference()
        start = time.monotonic()  # CLOCK_MONOTONIC, shared with the child on Linux
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        took = float(done.stdout) - start
        times.append(took * 2 * REFERENCE_S / (before + time_reference()))
    return times


def run_job(job: workloads.Job, cli, fgenus) -> tuple[float, str, str | None]:
    """(seconds, captured stdout, failure reason or None) of one job."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if job.argv:
                code = cli.main(list(job.argv))
            else:
                out.write(repr(fgenus.H(job.data["g"])) + "\n")
                code = 0
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any escape from the program is a failed job
            code = None
            failure = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()}"
    return elapsed, out.getvalue(), failure


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def tail_percentile(count: int) -> int:
    """Highest whole percentile that leaves at least ten of ``count`` jobs,
    and at least a tenth of them, beyond it.

    With only ten jobs beyond it, the free-rank tail rested on ten seeded
    vertex labellings and moved from 23 to 40 ms from seed to seed on the
    same machine; beyond p90 it rests on a tenth of them.
    """
    return max(0, math.floor(100 * (1 - max(TAIL_JOBS, count // 10) / count)))


def judge(jobs, outputs: list[str], crashes: list[str | None]) -> list[str | None]:
    """Failure reason per job of the first pass, or None: its crash (an
    exception or a nonzero exit code) if it crashed, else the oracle's
    verdict on its output."""
    return [crash or oracles.check(job, out)
            for job, out, crash in zip(jobs, outputs, crashes)]


def layer_metrics(tracer: tracing.Tracer, closed_jobs: set[int]) -> dict[str, float]:
    metrics = tracing.layer_metrics(tracer)
    verify_in_closed = sum(1 for name, job, *_ in tracer.spans
                           if name == "rzk.verify" and job in closed_jobs)
    metrics["rzk.verify_per_closed_job"] = (
        verify_in_closed / len(closed_jobs) if closed_jobs else 0.0)
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload; returns (informational fields, result)."""
    workdir = WORK / f"{name}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.generate(name, seed, workdir)
    setup_times(1)  # warms the file cache; not counted

    from involab import cli, fgenus

    for argv in (("rzk", "--m", "4"), ("free-rank", "--m", "4"), ("f", "--g", "3", "--exact")):
        run_job(workloads.Job("warm-up", argv, ""), cli, fgenus)
    for _ in range(50):
        time_reference()

    # Calls that may hit the known defect run once, untimed. The known
    # crash is allowed there; any other failure makes the run incorrect.
    probes = workloads.known_defect_probes(name, seed)
    raised: list[int] = []
    problems: list[str] = []
    for job in probes:
        _, out, failure = run_job(job, cli, fgenus)
        failure = failure or oracles.check(job, out)
        if failure is not None and workloads.known_defect(job, failure):
            raised.append(job.data["g"])
        elif failure is not None:
            problems.append(f"probe {job.stratum}: {failure}")

    # Each job starts from an empty young heap, as a fresh CLI process
    # would: otherwise where the collector's thresholds fall depends on the
    # jobs before it, that is on the seeded job order. Freezing what is
    # loaded now keeps that collection before each job short.
    gc.collect()
    gc.freeze()

    closed_jobs = {i for i, job in enumerate(jobs)
                   if job.oracle == "surface" and oracles.closed_surface(job.data)}
    digests: list[bytes] = []
    crashes: list[str | None] = []
    first: list[str | None] = []  # failure reason of each job in the first pass
    # Per job and pass: seconds as measured, and scaled to the reference speed.
    raw: dict[bool, list[list[float]]] = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
    scaled: dict[bool, list[list[float]]] = {False: [[] for _ in jobs], True: [[] for _ in jobs]}
    setup_samples: list[float] = []
    layer_runs: list[dict[str, float]] = []
    attempted = failed = changed = passes = 0
    started = time.perf_counter()
    while True:
        # Set-up samples are spread between passes so that one slow spell
        # of the machine cannot move all of them.
        if len(setup_samples) < SETUP_SAMPLES:
            setup_samples += setup_times(SETUP_PER_GAP)
        traced = trace and passes % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
        outputs = []
        elapsed: list[float] = []
        reference = [time_reference()]  # before each job and after the last
        pass_start = time.perf_counter()
        for index, job in enumerate(jobs):
            if traced:
                tracer.job = index
            gc.collect()
            seconds_taken, out, failure = run_job(job, cli, fgenus)
            reference.append(time_reference())
            elapsed.append(seconds_taken)
            digest = hashlib.sha256(out.encode()).digest()
            if passes == 0:
                digests.append(digest)
                crashes.append(failure)
                outputs.append(out)
                continue  # judged once the pass is over
            attempted += 1
            if digest != digests[index]:
                changed += 1
                failure = failure or "output differs from the first pass"
            failed += (failure or first[index]) is not None
        pass_time = time.perf_counter() - pass_start
        if traced:
            tracing.uninstall(tracer, restore)
            layer_runs.append(layer_metrics(tracer, closed_jobs))
        for index, seconds_taken in enumerate(elapsed):
            speed = (reference[index] + reference[index + 1]) / (2 * REFERENCE_S)
            raw[traced][index].append(seconds_taken)
            scaled[traced][index].append(seconds_taken / speed)
        if passes == 0:
            first = judge(jobs, outputs, crashes)
            del outputs
            attempted += len(jobs)
            failed += sum(reason is not None for reason in first)
        passes += 1
        if passes >= MIN_PASSES * (1 + trace) and (
            time.perf_counter() - started + pass_time > seconds
        ):
            break
    setup_samples += setup_times(SETUP_SAMPLES - len(setup_samples))  # too few passes

    # The host runs this process at a speed that changes from second to
    # second (by up to twice, as other tenants load the shared cores). A
    # job's time is therefore scaled by the reference work timed just
    # before and just after it, and its latency is the median over passes.
    per_job = [statistics.median(x) for x in scaled[False]]
    tail_pct = tail_percentile(len(jobs))
    tail = percentile(per_job, tail_pct)
    slowest = max(range(len(jobs)), key=per_job.__getitem__)
    problems += [f"{jobs[i].stratum}: {reason}" for i, reason in enumerate(first) if reason]
    info = {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "jobs": len(jobs),
        "tail_percentile": tail_pct,
        "tail_jobs_beyond": sum(x > tail for x in per_job),
        "failed_frac": failed / attempted,
        "first_failures": problems[:3],
        "changed_outputs": changed,
        "known_defect": {"probed": len(probes), "raised": len(raised),
                         "smallest_g": min(raised, default=None)},
        "unscaled_wall_s": sum(statistics.median(x) for x in raw[False]),
        "speed_vs_reference": statistics.median(
            r / s for rs, ss in zip(raw[False], scaled[False]) for r, s in zip(rs, ss)),
        "slowest_job": {"stratum": jobs[slowest].stratum,
                        "argv": " ".join(jobs[slowest].argv) or f"H({jobs[slowest].data['g']})",
                        "ms": 1000 * per_job[slowest]},
        "src_lines": src_line_count(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    if trace:
        metrics = {key: (statistics.median(run[key] for run in layer_runs),
                         "s" if key.endswith(("_s", ".s")) else "count")
                   for key in layer_runs[0]}
        traced_wall = sum(statistics.median(x) for x in scaled[True])
        metrics["trace.overhead_s"] = (traced_wall - sum(per_job), "s")
    else:
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "job_p50_ms": (1000 * statistics.median(per_job), "ms"),
            "job_tail_ms": (1000 * tail, "ms"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        # Every timed job must succeed, and every probe must either succeed
        # or hit the known defect.
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "involab" / "cli.py").is_file():
        print(f"error: no involab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    info, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for key, metric in result["metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} {metric['unit']}")
    print("info " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
