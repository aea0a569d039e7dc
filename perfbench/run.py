"""diskpack benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the package in the `src/` next to this
directory. Workloads (see README.md in this directory for why each exists):

  n14-d5-run     `diskpack run` on configs/n14.json at depth 5, the paper's example
  n14-d3-run     the same run at depth 3, where fixed costs dominate
  n14-d3-screen  candidates + filtering for a seeded, stratified sample of
                 seed pairs at depth 3: the auto-mode inner loop

With --trace 0 it prints the end-to-end metrics (op_s, setup_s, peak_rss_mb)
measured untraced, op_s and setup_s in reference seconds (see CAL_REF_S);
with --trace 1 it prints the per-layer metrics of a
separate traced run. Every operation's result is checked against
reference.json. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Nothing runs concurrently:
one child process at a time, one thread each.
"""

from __future__ import annotations

import os

# Pin numpy's thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402

import common  # noqa: E402
import tracer  # noqa: E402

# workload -> (kind, distance-set depth)
WORKLOADS = {
    "n14-d5-run": ("run", 5),
    "n14-d3-run": ("run", 3),
    "n14-d3-screen": ("screen", 3),
}
END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# setup_s samples: SETUP_FIRST before the first operation, then SETUP_AFTER
# after each one, so they spread over the run like the operations do.
SETUP_FIRST = 3
SETUP_AFTER = 2
# The screen pool is split into this many strata by candidate count, and
# each pass screens one pair from every stratum, so every pass carries the
# same mix of cheap and expensive pairs whatever the seed.
STRATA = 12
# The whole invocation must end within 180 s; no operation starts past this.
BUDGET_S = 165.0
# op_s and setup_s are given in reference seconds: the measured median times
# CAL_REF_S over the run's median calibration_sample(). The machine this was
# tuned on changes speed by up to 1.8x for seconds to minutes (README.md,
# "Noise"); the calibration loop, timed next to every set-up sample, slows
# down with it, so the ratio stays put while the raw times drift. Raw medians
# are printed as well.
CAL_REF_S = 0.035
CHILD = os.path.join(common.HERE, "child.py")
CANDIDATE_TOL = 1e-6


def calibration_sample() -> float:
    """Seconds for a fixed mix of interpreter and numpy work, independent of
    diskpack: sorting tuples, dict updates and small complex-array maths."""
    rng = random.Random(0)
    z = 0.5 * numpy.exp(1j * numpy.linspace(0.0, 6.28, 20000))
    t0 = time.perf_counter()
    items = sorted((rng.random(), i) for i in range(20000))
    buckets: dict[int, float] = {}
    for x, i in items:
        buckets[i % 997] = buckets.get(i % 997, 0.0) + x
    for _ in range(10):
        w = (z + 0.1) / (numpy.conj(z) * 0.1 + 1.0)
        numpy.sort(numpy.abs(w))
    return time.perf_counter() - t0


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """State of one benchmark invocation: checks, counts and samples."""

    def __init__(self, args, modules, reference):
        self.args = args
        self.config, self.pipeline, self.search = modules
        self.reference = reference
        self.kind, self.depth = WORKLOADS[args.workload]
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.degenerate = 0
        self.setup_s: list[float] = []
        self.calibration_s: list[float] = []
        self.work = os.path.join(common.WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
        self.out_dir = os.path.join(self.work, "out")
        self.cfg_path = os.path.join(self.work, "config.json")
        self.tracer = tracer.Tracer() if args.trace else None
        self.child_spans: list[tuple[int, str]] = []  # (operation, spans file)

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.start)

    def keep_going(self, t0: float, durations: list[float], minimum: int) -> bool:
        """Whether another operation of typical length fits in --seconds."""
        if not durations:
            return True
        if self.remaining() < 2 * max(durations):
            return False
        if len(durations) < minimum:
            return True
        elapsed = time.perf_counter() - t0
        return elapsed + statistics.median(durations) <= self.args.seconds

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def setup(self):
        """Build the shared state; its time is one setup_s sample, and one
        calibration sample follows it."""
        if self.tracer:
            self.tracer.op = -1 - len(self.setup_s)
        # start every sample from the same heap, so a collection that the
        # previous operation's garbage would trigger does not land in it
        gc.collect()
        t0 = time.perf_counter()
        state = common.setup(self.config, self.pipeline, self.cfg_path)
        self.setup_s.append(time.perf_counter() - t0)
        if not self.tracer:
            self.calibration_s.append(calibration_sample())
        return state

    def timings(self, op_samples: list[float]) -> dict:
        """op_s and setup_s in reference seconds; prints the raw medians."""
        op_raw = statistics.median(op_samples)
        setup_raw = statistics.median(self.setup_s)
        cal = statistics.median(self.calibration_s)
        print(f"op_s_raw = {op_raw:.6g} s (n={len(op_samples)})")
        print(f"setup_s_raw = {setup_raw:.6g} s (n={len(self.setup_s)})")
        print(f"calibration_s = {cal:.6g} s (n={len(self.calibration_s)})")
        scale = CAL_REF_S / cal
        return {
            "op_s": (op_raw * scale, len(op_samples)),
            "setup_s": (setup_raw * scale, len(self.setup_s)),
        }

    # -- run workloads -------------------------------------------------

    def check_run(self, code: int) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        expect = self.reference["run"][str(self.depth)]
        path = os.path.join(self.out_dir, "certificate.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cert = json.load(fh)
            topo = cert["solution"]["topology"]
            problems = []
            if cert["passed"] is not True:
                problems.append("certificate is not marked passed")
            if abs(complex(*cert["candidate"]) - complex(*expect["candidate"])) > CANDIDATE_TOL:
                problems.append(f"certificate candidate {cert['candidate']}")
            for key in ("euler_characteristic", "orientable", "genus"):
                if topo[key] != expect[key]:
                    problems.append(f"{key} = {topo[key]}, expected {expect[key]}")
            if len(cert["solution"]["pairings"]) != expect["generators"]:
                problems.append(f"{len(cert['solution']['pairings'])} generators")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"certificate.json unreadable: {type(exc).__name__}: {exc}"]
        ok, verify_problems = self.pipeline.verify_certificate_file(path)
        if not ok:
            problems.extend(verify_problems)
        return problems

    def run_child(self, cmd: list[str]):
        """One `diskpack run` child; returns (wall s, artifact bytes) or None."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=common.ROOT,
                env=common.child_env(),
                capture_output=True,
                text=True,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            self.fail("run", ["timed out"])
            return None
        wall = time.perf_counter() - t0
        problems = self.check_run(proc.returncode)
        if problems:
            self.fail("run", problems + [proc.stderr.strip()[-500:]])
        size = dir_bytes(self.out_dir)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return None if problems else (wall, size)

    def run_workload(self):
        for _ in range(SETUP_FIRST):
            self.setup()
        walls, sizes, peaks, per_op, traced_s, untraced_s = [], [], [], [], [], []
        t0 = time.perf_counter()
        k = 0
        while self.keep_going(t0, walls, 2 if self.tracer else 1):
            # a traced run alternates traced and untraced children, for the
            # tracing overhead
            traced = bool(self.tracer) and k % 2 == 0
            out_json = os.path.join(self.work, f"child-{k}.json")
            res = self.run_child([sys.executable, CHILD, out_json, "1" if traced else "0",
                                  "--", "run", "--config", self.cfg_path])
            if res is None:
                break
            wall, size = res
            t, data = tracer.load(out_json)
            walls.append(wall)
            sizes.append(size)
            peaks.append(data["peak_rss_kb"] / 1024.0)
            (traced_s if traced else untraced_s).extend(t.durations("pipeline.run_pipeline"))
            if traced:
                m = tracer.summarize(t)[0]
                m["pipeline.out_dir.bytes"] = size
                per_op.append(m)
                self.child_spans.append((k, out_json))
            elif not self.tracer:
                for _ in range(SETUP_AFTER):
                    self.setup()
            k += 1
        if self.tracer:
            overhead = median_or_zero(traced_s) - median_or_zero(untraced_s)
            return self.layer_metrics(per_op, overhead, len(per_op))
        if not walls:
            return {name: (0.0, 0) for name in END_TO_END}
        print(f"run_s = {statistics.median(walls):.6g} s (n={len(walls)})")
        print(f"artifact_bytes = {statistics.median(sizes):.0f} B (n={len(sizes)})")
        return {**self.timings(walls), "peak_rss_mb": (max(peaks), len(peaks))}

    # -- screen workload -----------------------------------------------

    def passes(self, rng: random.Random):
        """Seeded passes over the pool, one pair per stratum each."""
        pool = self.reference["screen"]["pairs"]
        ordered = sorted(
            pool, key=lambda e: (-1 if e["candidates"] is None else e["candidates"], e["p1"], e["p2"])
        )
        size = len(ordered) // STRATA
        strata = [ordered[i * size:(i + 1) * size] for i in range(STRATA)]
        for s in strata:
            rng.shuffle(s)
        k = 0
        while True:
            batch = [s[k % size] for s in strata]
            rng.shuffle(batch)
            yield batch
            k += 1

    def screen_batch(self, state, index, centers, batch, traced: bool) -> float:
        """Screen one pass; returns the seconds spent screening."""
        cfg, dset, F, L = state
        total = 0.0
        for entry in batch:
            p1, p2 = index[tuple(entry["p1"])], index[tuple(entry["p2"])]
            self.attempted += 1
            if traced:
                self.tracer.op += 1
            t0 = time.perf_counter()
            try:
                items = common.screen_pair(self.search, cfg, dset, F, L, centers, p1, p2)
            except Exception as exc:  # a crash is one failed operation
                self.fail(f"screen {entry['p1']} x {entry['p2']}", [f"{type(exc).__name__}: {exc}"])
                continue
            total += time.perf_counter() - t0
            if items is None:
                self.degenerate += 1
                got = (None, None)
            else:
                got = tracer.filtering_counts(items, len(L))[:2]
                if traced:
                    tracer.record_filtering(self.tracer, items, len(L))
            want = (entry["candidates"], entry["survivors"])
            if got != want:
                self.fail(
                    f"screen {entry['p1']} x {entry['p2']}",
                    [f"|C|, survivors = {got}, expected {want}"],
                )
        return total

    def screen_workload(self):
        if self.reference["screen"]["depth"] != self.depth:
            raise common.BenchError("reference.json screen depth does not match")
        rng = random.Random(self.args.seed)
        if self.tracer:
            self.tracer.install()
        for _ in range(SETUP_FIRST):
            state = self.setup()
        if self.tracer:
            self.tracer.uninstall()
            self.tracer.op = 0
        cfg, dset, F, L = state
        index = common.pairing_index(L)
        centers = [F.center(i) for i in range(F.k)]
        per_pair, overhead, pass_s = [], [], []
        t0 = time.perf_counter()
        for batch in self.passes(rng):
            if not self.keep_going(t0, pass_s, 1):
                break
            started = time.perf_counter()
            untraced = self.screen_batch(state, index, centers, batch, False)
            per_pair.append(untraced / len(batch))
            if not self.tracer:
                for _ in range(SETUP_AFTER):
                    self.setup()
            else:
                self.tracer.install()
                try:
                    traced = self.screen_batch(state, index, centers, batch, True)
                finally:
                    self.tracer.uninstall()
                overhead.append((traced - untraced) / len(batch))
            pass_s.append(time.perf_counter() - started)
        if self.tracer:
            per_op = list(tracer.summarize(self.tracer).values())
            return self.layer_metrics(per_op, statistics.median(overhead), len(overhead))
        print(f"screen_pairs_per_s = {1.0 / statistics.median(per_pair):.6g} 1/s "
              f"(n={len(per_pair)} passes)")
        print(f"degenerate = {self.degenerate} count (n={self.attempted})")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {**self.timings(per_pair), "peak_rss_mb": (peak, len(per_pair))}

    # -- traced metrics ------------------------------------------------

    def layer_metrics(self, per_op, overhead, n):
        """Median over the operations that entered each layer; 0 if none did."""
        out = {}
        for name in tracer.PER_LAYER:
            values = [m[name] for m in per_op if name in m]
            out[name] = (median_or_zero(values), len(values))
        out["trace.overhead_s"] = (overhead, n)
        return out

    def write_spans(self) -> str:
        path = os.path.join(
            common.WORK, f"spans-{self.args.workload}-s{self.args.seed}.json"
        )
        if self.kind == "screen":
            self.tracer.dump(path)
        else:
            ops = []
            for k, spans in self.child_spans:
                with open(spans, "r", encoding="utf-8") as fh:
                    ops.append({"op": k, **json.load(fh)})
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"ops": ops}, fh)
        return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        modules = common.import_package()
        with open(common.REFERENCE, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
    except (common.BenchError, ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2

    bench = Bench(args, modules, reference)
    os.makedirs(bench.work, exist_ok=True)
    try:
        common.write_config(bench.cfg_path, bench.depth, bench.out_dir)
        if bench.kind == "run":
            metrics = bench.run_workload()
        else:
            metrics = bench.screen_workload()
        if bench.tracer:
            print(f"spans -> {os.path.relpath(bench.write_spans(), common.ROOT)}")
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    units = tracer.PER_LAYER if args.trace else END_TO_END
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: "
        f"nproc {os.cpu_count()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}"
    )
    for name, unit in units.items():
        value, n = metrics[name]
        print(f"{name} = {value:.6g} {unit} (n={n})")
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_ratio = {ratio:.6g} ratio (n={bench.attempted})")
    print(
        json.dumps(
            {
                "correct": bench.failed == 0 and bench.attempted > 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
