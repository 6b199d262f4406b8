"""Seeded end-to-end and per-layer benchmark of gclin.

Run from the root of a checkout:

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one thread, closed loop with one caller; the ``cli``
workload runs one child at a time.  ``--trace 0`` times the workload
and reports the end-to-end metrics; ``--trace 1`` wraps gclin's public
functions and reports the per-layer metrics (see BENCHMARK.json and
perfbench/README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the full
record, with sample counts and the machine it ran on, goes to
perfbench/out/.  Any failed item or digest mismatch makes the exit
code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"
DEFAULT_SEED = 1
SETUP_PROBES = 5
SWEEP_SIZES = (2, 4, 6, 8)
SWEEP_PER_SIZE = 3
CLI_PROBES = 5
MIN_PASSES = 2
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
WORKLOADS = ("roundtrip", "classify", "relations", "cli")


def load_gclin():
    """Import gclin from this checkout's src/ and nowhere else."""
    if not (SRC / "gclin" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'gclin'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import gclin

    if Path(gclin.__file__).resolve().parent != SRC / "gclin":
        sys.exit(f"error: imported gclin from {gclin.__file__}, not from {SRC}")


def git_revision():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
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


def environment(seed):
    from gclin.fields import _ratio

    return {
        "backend": _ratio.__name__,
        "python": platform.python_version(),
        "revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def fraction_elimination():
    """Gauss-Jordan elimination of a fixed 10 x 10 matrix of stdlib Fractions."""
    rng = Random(0)
    size = 10
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)] for _ in range(size)]
    for c in range(size):
        p = next(r for r in range(c, size) if m[r][c])
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(size):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def bare_interpreter():
    subprocess.run([sys.executable, "-c", "pass"], env=CHILD_ENV, check=True)


class Reference:
    """Fixed work of the same kind as a workload's items that runs none of gclin's code.

    Its wall time follows the speed that the shared machine gives the
    benchmark at the moment, and no change to gclin moves it.
    """

    def __init__(self, work, nominal_ms):
        self.work = work
        self.nominal_s = nominal_ms / 1000

    def seconds(self):
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def nominal(self, seconds, before, after):
        """Scale a wall time to the machine speed at which the reference takes nominal_ms."""
        return seconds * 2 * self.nominal_s / (before + after)


# nominal times: on a quiet 2-CPU Intel Xeon, the machine the benchmark
# was written on, the elimination takes 3.0 ms and a bare interpreter
# starts in 40 ms
REFERENCES = {
    "fraction": Reference(fraction_elimination, 3.0),
    "interpreter": Reference(bare_interpreter, 40.0),
}


class Run:
    """Timed passes over a workload's items, with verification and output digests.

    Every pass runs the same items in the same order.  The workload's
    reference runs between consecutive items, and each item's wall time
    is scaled to nominal time by the two references around it.
    """

    def __init__(self, wl):
        self.wl = wl
        self.items = wl.items()
        self.reference = REFERENCES[wl.reference]
        self.times = []  # wall seconds of every completed execution
        self.latencies = []  # the same in nominal seconds
        self.references = []  # wall seconds of every reference run
        self.attempted = 0
        self.failures = []
        self.digests = {}  # item key -> digest of its first output
        self.golden = hashlib.sha256()
        self.max_bits = 0

    def item(self, item, first_pass):
        """Run, verify and digest one item; its wall seconds, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = item.run()
            elapsed = time.perf_counter() - t0
            text = item.encode(out)
        except Exception as exc:  # every failure is counted and reported
            self.failures.append(f"{self.wl.name} {item.key}: {type(exc).__name__}: {exc}")
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(item.key, digest) != digest:
            self.failures.append(f"{self.wl.name} {item.key}: output changed between repeats")
            return None
        if first_pass:
            self.golden.update(digest.encode())
        self.max_bits = max(self.max_bits, coeff_bits(text))
        return elapsed

    def loop(self, seconds, min_passes):
        """The whole number of passes nearest to seconds, and at least min_passes."""
        start = time.perf_counter()
        before = self.reference.seconds()
        self.references.append(before)
        passes = 1
        p = 0
        while p < passes:
            for item in self.items:
                elapsed = self.item(item, p == 0)
                after = self.reference.seconds()
                self.references.append(after)
                if elapsed is not None:
                    self.times.append(elapsed)
                    self.latencies.append(self.reference.nominal(elapsed, before, after))
                before = after
            if p == 0:
                passes = max(min_passes, round(seconds / (time.perf_counter() - start)))
            p += 1
        return passes

    @property
    def items_per_s(self):
        return len(self.latencies) / sum(self.latencies)

    @property
    def slowdown(self):
        """Median reference time over its nominal time."""
        return statistics.median(self.references) / self.reference.nominal_s


def coeff_bits(text):
    """Largest numerator or denominator bit length among the 'p/q' strings of an output."""
    best = 0
    for token in text.replace('"', " ").replace(",", " ").split():
        if "/" in token:
            p, _, q = token.partition("/")
            if p.lstrip("-").isdigit() and q.isdigit():
                best = max(best, int(p).bit_length(), int(q).bit_length())
    return best


def check_golden(name, seed, digest, failures):
    if seed != DEFAULT_SEED:
        return
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    if golden.get(name) != digest:
        failures.append(f"{name}: output digest {digest} != golden {golden.get(name)}")


def setup_probes(args, reference):
    """Nominal time of fresh processes from start to the end of the warm-up item."""
    times = []
    before = reference.seconds()
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode:
            raise RuntimeError("setup probe failed: " + proc.stderr.decode(errors="replace")[-500:])
        after = reference.seconds()
        times.append(reference.nominal(elapsed, before, after))
        before = after
    return times


def prepare(args, workloads):
    wl = workloads.make(args.workload, args.seed, str(ROOT))
    warm = wl.items()[0]
    warm.encode(warm.run())
    return wl


def end_to_end(args, workloads):
    wl = prepare(args, workloads)
    run = Run(wl)
    passes = run.loop(args.seconds, MIN_PASSES)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    probes = setup_probes(args, run.reference)
    check_golden(args.workload, args.seed, run.golden.hexdigest(), run.failures)
    n = len(run.latencies)
    lat_ms = sorted(x * 1000 for x in run.latencies)
    metrics = {
        "setup_s": metric(statistics.median(probes), "s", len(probes)),
        "items_per_s": metric(run.items_per_s, "1/s", n),
        "item_p50_ms": metric(statistics.median(lat_ms), "ms", n),
        "item_p90_ms": metric(statistics.quantiles(lat_ms, n=10)[8], "ms", n),
        "peak_rss_mb": metric(peak_rss_mb, "MB", 1),
    }
    wall_ms = sorted(x * 1000 for x in run.times)
    detail = {
        "passes": passes,
        "error_rate": (run.attempted - n) / run.attempted,
        "digest": run.golden.hexdigest(),
        "slowdown": run.slowdown,
        "wall": {
            "items_per_s": n / sum(run.times),
            "item_p50_ms": statistics.median(wall_ms),
            "item_p90_ms": statistics.quantiles(wall_ms, n=10)[8],
        },
    }
    return run, metrics, detail


def size_sweep(seed, workloads):
    """Untraced nominal per-structure times of the core constructions at each n."""
    from gclin import classification, core, spinor, transforms

    rng = Random(f"sweep/{seed}")
    reference = REFERENCES["fraction"]
    ops = {
        "core.to_eigenspace": lambda j, e, line: core.to_eigenspace(j),
        "core.to_aut": lambda j, e, line: core.to_aut(e),
        "spinor.annihilator_subspace": lambda j, e, line: spinor.annihilator_subspace(line.rep),
        "transforms.classify_type": lambda j, e, line: transforms.classify_type(j),
        "classification.decompose": lambda j, e, line: classification.decompose(j),
    }
    table = {}
    for n in SWEEP_SIZES:
        times = {op: [] for op in ops}
        for j in workloads.stratified_pool(rng, n, SWEEP_PER_SIZE):
            e = core.to_eigenspace(j)
            line = spinor.spinor_from_subspace(e.e)
            for op, fn in ops.items():
                before = reference.seconds()
                t0 = time.perf_counter()
                fn(j, e, line)
                elapsed = time.perf_counter() - t0
                times[op].append(reference.nominal(elapsed, before, reference.seconds()))
        for op, ts in times.items():
            table[f"{op}.n{n}_ms"] = metric(1000 * statistics.median(ts), "ms", len(ts))
    return table


def interpreter_probes():
    def wall(code):
        times = []
        for _ in range(CLI_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT, check=True)
            times.append(time.perf_counter() - t0)
        return 1000 * statistics.median(times)

    bare = wall("pass")
    return bare, wall("import gclin.cli") - bare


def per_layer(args, workloads):
    from spans import Tracer

    wl = prepare(args, workloads)
    if args.workload == "cli":
        wl.in_process = True
    half = args.seconds / 2
    plain = Run(wl)
    plain.loop(half, 1)
    failures = plain.failures
    check_golden(args.workload, args.seed, plain.golden.hexdigest(), failures)

    tracer = Tracer().install()
    try:
        probe = plain.items[0]
        escaped = tracer.self_check(probe.run)
        if escaped:
            failures.append(f"wrapped and direct call counts differ: {escaped}")
        traced = Run(wl)
        mark = tracer.mark()
        traced.loop(half, 1)
        calls, self_s, _ = tracer.summarize(mark)
        cli_wl = wl if args.workload == "cli" else workloads.make("cli", args.seed, str(ROOT))
        cli_wl.in_process = True
        cli_run = Run(cli_wl)
        cli_mark = tracer.mark()
        cli_run.loop(0, 1)
        _, cli_self_s, serialize_s = tracer.summarize(cli_mark)
    finally:
        tracer.uninstall()
    failures += traced.failures + cli_run.failures
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.txt")
    cleanup(wl)
    cleanup(cli_wl)

    items = len(traced.times)
    busy = sum(traced.times)
    cli_items = len(cli_run.times)
    borrowed = []

    def self_ms(layer):
        """Per traced item; a layer this workload never calls is timed on the cli pass instead."""
        if self_s[layer] > 0:
            return metric(1000 * self_s[layer] / items, "ms", items)
        borrowed.append(layer)
        return metric(1000 * cli_self_s[layer] / cli_items, "ms", cli_items)

    def calls_of(*names):
        return metric(sum(calls[tracer.fid(name)] for name in names) / items, "count", items)

    interpreter_ms, import_ms = interpreter_probes()
    metrics = {
        "fields.rational_calls": calls_of("fields:rational"),
        "fields.gaussian_new": calls_of("fields:GaussianRational.__init__"),
        "fields.coeff_bits_max": metric(traced.max_bits, "bits", items),
        "linalg.rref_calls": calls_of("linalg:Matrix.rref"),
        "linalg.self_ms": self_ms("linalg"),
        "linalg.share": metric(self_s["linalg"] / busy, "ratio", items),
        "multivector.wedge_calls": calls_of("multivector:Multivector.wedge"),
        "multivector.self_ms": self_ms("multivector"),
        "core.to_eigenspace_calls": calls_of("core:to_eigenspace"),
        "core.validate_calls": calls_of("core:validate_aut", "core:validate_eigenspace"),
        "core.self_ms": self_ms("core"),
        "spinor.self_ms": self_ms("spinor"),
        "transforms.self_ms": self_ms("transforms"),
        "subspaces.self_ms": self_ms("subspaces"),
        "classification.self_ms": self_ms("classification"),
        "relations.self_ms": self_ms("relations"),
        "serialize.decode_ms": metric(1000 * serialize_s["decode"] / cli_items, "ms", cli_items),
        "serialize.encode_ms": metric(1000 * serialize_s["encode"] / cli_items, "ms", cli_items),
        "cli.interpreter_ms": metric(interpreter_ms, "ms", CLI_PROBES),
        "cli.import_ms": metric(import_ms, "ms", CLI_PROBES),
    }
    metrics.update(size_sweep(args.seed, workloads))
    metrics["trace.overhead"] = metric(traced.items_per_s / plain.items_per_s - 1, "ratio", items)
    attempted = plain.attempted + traced.attempted + cli_run.attempted
    detail = {
        "traced_items": items,
        "untraced_items": len(plain.times),
        "digest": plain.golden.hexdigest(),
        "self_ms_from_cli_pass": borrowed,
    }
    return attempted, failures, metrics, detail


def run_one(args):
    load_gclin()
    import workloads

    if args.setup_only:
        wl = prepare(args, workloads)
        cleanup(wl)
        return 0
    env = environment(args.seed)
    load_before = os.getloadavg()
    if args.trace:
        attempted, failures, metrics, detail = per_layer(args, workloads)
    else:
        run, metrics, detail = end_to_end(args, workloads)
        attempted, failures = run.attempted, run.failures
        cleanup(run.wl)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **env,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        **detail,
        "failures": failures,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps(record, indent=1))
    for line in failures[:20]:
        print("FAIL", line, file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:40s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def cleanup(wl):
    folder = getattr(wl, "folder", None)
    if folder:
        shutil.rmtree(folder, ignore_errors=True)


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    load_gclin()
    combined = {**environment(args.seed), "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            path = OUT / f"{name}-s{args.seed}-t{trace}.json"
            path.unlink(missing_ok=True)
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, check=False)
            status = status or proc.returncode
            if path.is_file():
                combined["workloads"].setdefault(name, {})[f"trace{trace}"] = json.loads(path.read_text())
            else:
                status = status or 1
    (OUT / f"all-s{args.seed}.json").write_text(json.dumps(combined, indent=1))
    if args.trajectory:
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"label": args.trajectory, **combined}, sort_keys=True) + "\n")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trajectory", metavar="LABEL", help="with --workload all: append the record to trajectory.jsonl")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
