"""opnkit benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload lemma-sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports opnkit from its
``src/`` directory.  One client drives jobs in a closed loop, in this
process, one at a time; the job list of a pass comes from the seed and
the loop repeats the pass until ``--seconds`` have elapsed (at least one
whole pass).  Each job's latency is the median over its repeats of its
CPU time in reference seconds (see REF_S), which keeps bursts of machine
noise, time spent waiting for a core held by another tenant and drift of
the core's speed from moving the result; CPU and wall-clock figures are
printed alongside for comparison.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` every job runs once untraced and once traced, in
alternating order, and the line reports the per-layer metrics from the
traced runs together with the tracing overhead.  Every answer is checked;
the exit code is 1 when any job crashed or answered wrongly and 2 when
the checkout holds no opnkit source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import jobs
import reference
import spans
import warm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

# Calibration: after every job a fixed kernel of benchmark-owned work runs,
# and job times are reported in reference seconds: the job's CPU time
# divided by the kernel's, times REF_S, the time one run of the kernel
# stands for.  On a shared 2-vCPU virtual machine the CPU time of one
# unchanged job drifted by up to 1.7x over tens of seconds as the core's
# speed varied, and the ratio takes that drift out.  Kinds of work respond
# differently to that drift (numpy's small-array sweeps moved about half as
# much as big-integer arithmetic), so each workload's kernel does the same
# kind of work as its hot loops.
REF_S = 0.001
_ODDS = tuple((1 << 40) + 2 * k + 1 for k in range(60))
_TABLE = np.zeros(20_000, dtype=np.int64)
_RESIDUES_MOD8 = np.array([1, 5] * 1500, dtype=np.int64)


def _miller_rabin_and_strided_updates() -> None:
    """Like factoring and primality tests, then sigma_range and primes_below."""
    for n in _ODDS:
        reference.is_prime(n)
    for d in range(1, 300):
        _TABLE[d::d] += d


def _mod8_sweep_and_residue_sets() -> None:
    """Like lemma_oracle's power sweep, then certify_case's enumeration."""
    power = np.ones_like(_RESIDUES_MOD8)
    acc = np.ones_like(_RESIDUES_MOD8)
    for _ in range(40):
        power = power * _RESIDUES_MOD8 % 8
        acc = (acc + power) % 8
    len({(8 * x + 1) * (8 * c + 4) * (8 * d + 5) % 24 for x in range(24) for c in range(24) for d in range(8)})


KERNELS = {
    "lemma-sweep": _mod8_sweep_and_residue_sets,
    "special-sieve": _miller_rabin_and_strided_updates,
    "divisor-chain": _miller_rabin_and_strided_updates,
}


# Spans whose call count and self time are reported, and work counters.
SPANS = (
    "congruences.lemma_oracle",
    "congruences.certify_case",
    "sieve.sieve_special_primes",
    "sieve.scan_special_primes",
    "arith.primes_below",
    "arith.classify_prime.lt64",
    "arith.classify_prime.ge64",
    "arith.factorize",
    "arith.sigma_range",
    "identities.report_from_spoof",
    "cli.run",
)
COUNTERS = (
    "congruences.lemma_oracle.pairs",
    "sieve.sieve_special_primes.roots",
    "sieve.sieve_special_primes.hits",
    "arith.primes_below.numbers",
    "arith.sigma_range.n",
)


def end_to_end_units() -> dict[str, str]:
    return {
        "jobs_per_s": "1/ref_s",
        "job_p50_ms": "ref_ms",
        "job_p90_ms": "ref_ms",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units.update((name, "count") for name in COUNTERS)
    units["sieve.is_prime_per_root"] = "ratio"
    for layer in (*spans.LAYERS, "other"):
        units[f"layer.{layer}.self_pct"] = "%"
    units["trace.pass_ms"] = "ms"
    units["trace.jobs_per_s"] = "1/ref_s"
    units["trace.untraced_jobs_per_s"] = "1/ref_s"
    units["trace.overhead_pct"] = "%"
    return units


def cpu_seconds() -> float:
    """CPU time used so far by this process and by its children that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def calibration_seconds(kernel) -> float:
    """CPU seconds of one run of a calibration kernel."""
    start = cpu_seconds()
    kernel()
    return cpu_seconds() - start


def _nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[ceil(q * len(sorted_values)) - 1]


def _rate(samples) -> float:
    """Jobs per second of one pass in which every job takes its median time."""
    return len(samples) / sum(statistics.median(s) for s in samples)


class Loop:
    """The closed-loop job runner and what it observed.

    ref, cpu and wall [traced][i] hold the reference, CPU and wall seconds
    of each repeat of job i, untraced (False) and traced (True).  CPU time
    (see cpu_seconds) leaves out the time the process waited for a core
    held by another tenant; for opnkit's single-threaded jobs on an idle
    machine it equals wall time.  Reference time also takes out the drift
    of the core's speed: kernel is the workload's calibration kernel (see
    REF_S and KERNELS).
    """

    def __init__(self, job_list, kernel, tracer=None):
        self.jobs = job_list
        self.kernel = kernel
        self.tracer = tracer
        self.ref = {mode: [[] for _ in job_list] for mode in (False, True)}
        self.cpu = {mode: [[] for _ in job_list] for mode in (False, True)}
        self.wall = {mode: [[] for _ in job_list] for mode in (False, True)}
        self.passes: list[dict] = []  # tracer snapshot of each whole traced pass
        self.attempted = 0
        self.failures: list[str] = []

    def _one(self, i: int, traced: bool) -> None:
        job = self.jobs[i]
        if traced:
            self.tracer.install()
        start, cpu_start = perf_counter(), cpu_seconds()
        try:
            out = jobs.run_job(job)
        except Exception as exc:  # a crash is a failed job, not the end of the run
            why = f"crashed: {exc!r}"
        else:
            why = None
        finally:
            cpu, wall = cpu_seconds() - cpu_start, perf_counter() - start
            if traced:
                self.tracer.uninstall()
        self.ref[traced][i].append(cpu / calibration_seconds(self.kernel) * REF_S)
        if why is None:
            why = jobs.check_job(job, out)
        self.cpu[traced][i].append(cpu)
        self.wall[traced][i].append(wall)
        self.attempted += 1
        if why is not None:
            self.failures.append(f"{job.kind} {' '.join(map(str, job.args))[:120]}: {why}")

    def run(self, seconds: float) -> None:
        """Repeat the pass until `seconds` of wall time have passed, at least once."""
        start = perf_counter()
        done = 0
        while True:
            if self.tracer is not None:
                self.tracer.reset()
            for i in range(len(self.jobs)):
                if self.tracer is None:
                    self._one(i, False)
                else:
                    for traced in ((False, True) if (i + done) % 2 == 0 else (True, False)):
                        self._one(i, traced)
                if done and perf_counter() - start >= seconds:
                    return
            done += 1
            if self.tracer is not None:
                t = self.tracer
                self.passes.append({
                    "calls": dict(t.calls),
                    "self_s": dict(t.self_s),
                    "counts": dict(t.counts),
                    "edges": dict(t.edges),
                    "wall_s": sum(w[-1] for w in self.wall[True]),
                })
            if perf_counter() - start >= seconds:
                return


def _latencies(samples) -> dict[str, float]:
    medians = sorted(statistics.median(s) for s in samples)
    return {
        "jobs_per_s": _rate(samples),
        "job_p50_ms": _nearest_rank(medians, 0.5) * 1e3,
        "job_p90_ms": _nearest_rank(medians, 0.9) * 1e3,
    }


def end_to_end_metrics(loop: Loop, setup_s: float) -> dict[str, float]:
    return {
        **_latencies(loop.ref[False]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(loop: Loop) -> dict[str, float]:
    """Counts from the first whole traced pass; times are medians over whole passes."""
    first = loop.passes[0]
    out: dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.calls"] = first["calls"].get(name, 0)
        out[f"{name}.self_ms"] = statistics.median(
            p["self_s"].get(name, 0.0) for p in loop.passes
        ) * 1e3
    for name in COUNTERS:
        out[name] = first["counts"].get(name, 0)
    roots = first["counts"].get("sieve.sieve_special_primes.roots", 0)
    calls = first["counts"].get("sieve.classify_prime_calls", 0)
    out["sieve.is_prime_per_root"] = calls / roots if roots else 0.0
    shares = {layer: [] for layer in (*spans.LAYERS, "other")}
    for p in loop.passes:
        by_layer = {layer: 0.0 for layer in spans.LAYERS}
        for name, s in p["self_s"].items():
            by_layer[name.split(".")[0]] += s
        by_layer["other"] = p["wall_s"] - sum(by_layer.values())
        for layer, s in by_layer.items():
            shares[layer].append(100 * s / p["wall_s"])
    for layer, values in shares.items():
        out[f"layer.{layer}.self_pct"] = statistics.median(values)
    out["trace.pass_ms"] = statistics.median(p["wall_s"] for p in loop.passes) * 1e3
    traced, plain = _rate(loop.ref[True]), _rate(loop.ref[False])
    out["trace.jobs_per_s"] = traced
    out["trace.untraced_jobs_per_s"] = plain
    out["trace.overhead_pct"] = 100 * (plain / traced - 1)
    return out


def measure_setup() -> float:
    """Median over fresh processes of importing opnkit and warming its tables."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "warm.py"), str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def provenance(workload: str, seed: int, jobs_per_pass: dict[str, int]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "opnkit").glob("*.py")):
        digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    git_sha = "not a git checkout"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref.removeprefix("ref: ")
        git_sha = ref_path.read_text().strip() if ref.startswith("ref: ") and ref_path.is_file() else ref
    return {
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": jobs_per_pass,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opnkit" / "__init__.py").is_file():
        print(f"error: no opnkit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import opnkit

    if Path(opnkit.__file__).resolve().parent != SRC / "opnkit":
        print(f"error: imported opnkit from {opnkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    warm.warm()

    job_list = jobs.make_jobs(args.workload, args.seed)
    counts = {w: len(jobs.make_jobs(w, args.seed)) for w in jobs.WORKLOADS}
    print("provenance", json.dumps(provenance(args.workload, args.seed, counts), sort_keys=True))
    setup_s = measure_setup()

    loop = Loop(job_list, KERNELS[args.workload], spans.Tracer() if args.trace else None)
    loop.run(args.seconds)

    if args.trace:
        values, units = per_layer_metrics(loop), per_layer_units()
        edges = sorted(loop.passes[0]["edges"].items(), key=lambda kv: -kv[1])
        for (parent, child), calls in edges[:20]:
            print(f"edge {parent} -> {child}: {calls} calls per pass")
    else:
        values, units = end_to_end_metrics(loop, setup_s), end_to_end_units()
    failed = len(loop.failures)
    for reason in loop.failures[:10]:
        print(f"wrong: {reason}", file=sys.stderr)
    passes = min(len(s) for s in loop.cpu[False])
    print(f"jobs per pass {len(job_list)}, whole passes {passes}, attempted {loop.attempted}, "
          f"failed {failed}, error_rate {failed / loop.attempted:.6g}")
    for clock in ("cpu", "wall"):
        figures = _latencies(getattr(loop, clock)[False])
        print(f"{clock} clock, for comparison: " + ", ".join(f"{k} = {v:.6g}" for k, v in figures.items()))
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
