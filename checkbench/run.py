"""End-to-end benchmark of `padicdyn check`, with a separate traced run per layer.

    python3 checkbench/run.py --workload corpus_mixed --seed 0 --seconds 55 --trace 0

Run from the repository root.  Load model: a closed loop with one client;
each check is one in-process call of ``padicdyn.cli.main(["check", file,
"--report", out])`` and starts only after the previous one returned.  The
workload's round of problem files (see workloads.py) is checked again and
again; a new round starts only while fewer than ``--seconds`` have passed, so
every run times whole rounds.  One untimed round warms up first; after it
every check is one sample.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
times one round untraced, then one round with spans and counters installed
(tracing.py), and reports the per-layer metrics, per round.  Every check is
verified: exit code against verdict, verdict and hit index against the
instance's known answer, and, for pinned seeds and the goldens, the sha256 of
the report against digests.json.  The last line of stdout is the result as
JSON; the same result with run metadata and the spans goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402

EXIT_CODES = {"finite": 0, "invariant_candidate": 1, "inconclusive": 2}
SETUP_SAMPLES = 25
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import padicdyn; print(time.perf_counter() - t)"
)


def measure_setup_s() -> float:
    """Median wall time of `import padicdyn` in a fresh interpreter (one warm-up first)."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
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


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_sha256():
    """Digest of the package sources: identifies the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "padicdyn").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(padicdyn, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "backend": padicdyn.BACKEND,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


class Checker:
    """Runs checks on one round of instances and verifies every answer."""

    def __init__(self, cli, instances, workdir, expected, pinned=False):
        self.cli = cli
        self.instances = instances
        self.expected = expected
        self.pinned = pinned  # every report of this seed has a pinned digest
        self.report = str(workdir / "report.json")
        self.paths = []
        for inst in instances:
            path = workdir / f"{inst.name}.json"
            path.write_text(inst.problem_json(), encoding="utf-8")
            self.paths.append(str(path))
        self.first_digest = {}
        self.failures = []
        self.attempted = 0

    def run(self, index):
        """One check; returns its wall time.  Verification is not timed."""
        if os.path.exists(self.report):
            os.unlink(self.report)
        start = perf_counter()
        try:
            outcome = self.cli.main(["check", self.paths[index], "--report", self.report])
        except Exception as exc:  # a check that raises is a failed check
            outcome = exc
        elapsed = perf_counter() - start
        inst = self.instances[index]
        self.attempted += 1
        reason = self._fault(inst, outcome)
        if reason:
            self.failures.append(f"{inst.name}: {reason}")
        return elapsed

    def _fault(self, inst, outcome):
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        try:
            with open(self.report, "rb") as fh:
                data = fh.read()
        except OSError:
            return f"exit {outcome} and no report"
        try:
            report = json.loads(data)
            verdict = report["overall"]["verdict"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        if outcome != EXIT_CODES.get(verdict):
            return f"exit code {outcome} does not match verdict {verdict}"
        if verdict != inst.verdict:
            return f"verdict {verdict}, known answer {inst.verdict}"
        if inst.hit_index is not None and inst.hit_index not in report["direct_hits"]:
            return f"constructed hit at index {inst.hit_index} missing from {report['direct_hits']}"
        digest = hashlib.sha256(data).hexdigest()
        if self.first_digest.setdefault(inst.name, digest) != digest:
            return "report differs from the same check's earlier report"
        want = self.expected.get(inst.name)
        if want is None and self.pinned:
            return "no pinned digest: re-pin after changing a workload"
        if want is not None and want != digest:
            return f"report sha256 {digest} differs from pinned {want}"
        return None


def expected_digests(workload, seed):
    """Pinned report digests for this run, and whether the seed is a pinned one."""
    pinned = json.loads(DIGESTS.read_text())
    out = dict(pinned["golden"])
    seed_digests = pinned["seeds"].get(workload, {}).get(str(seed))
    out.update(seed_digests or {})
    return out, seed_digests is not None


def record_digests(checker, workload, seed):
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"golden": {}, "seeds": {}}
    seed_digests = {}
    for inst in checker.instances:
        digest = checker.first_digest[inst.name]
        if inst.name.startswith("golden-"):
            pinned["golden"][inst.name] = digest
        else:
            seed_digests[inst.name] = digest
    pinned["seeds"].setdefault(workload, {})[str(seed)] = seed_digests
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def timed_rounds(checker, seconds):
    """One warm-up round, then whole rounds until `seconds` have passed; returns their check times."""
    for index in range(len(checker.instances)):
        checker.run(index)
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append([checker.run(index) for index in range(len(checker.instances))])
    return rounds


def end_to_end(checker, rounds, setup_s):
    """Every timed check of the run is one sample of the closed loop."""
    times = [t for round_times in rounds for t in round_times]
    return {
        "checks_per_s": len(times) / sum(times),
        "check_s_p50": statistics.median(times),
        "check_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_share": (checker.attempted - len(checker.failures)) / checker.attempted,
    }


def per_layer(tracer, untraced_s, traced_s):
    stats = tracer.summary()
    values = {}
    for name, row in stats.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.s"] = row["s"]
        values[f"{name}.self_s"] = row["self_s"]
    values["core.series_mul.products"] = stats["core.series_mul"]["products"]
    values["core.series_mul.unit_bytes"] = stats["core.series_mul"]["unit_bytes"]
    values["core.conv_at.products"] = stats["core.conv_at"]["products"]
    compose = stats["series.compose"]
    values["series.compose.products_per_call"] = (
        compose["products_below"] / compose["calls"] if compose["calls"] else 0
    )
    for name, _, _ in tracing.COUNTERS:
        values[name] = tracer.counts[name]
    root = stats["cli.main"]
    values["trace.unaccounted_s"] = root["self_s"]
    values["trace.unaccounted_share"] = root["self_s"] / root["s"]
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values


def write_spans(tracer, path):
    fields = ["check", "name", "start", "end", "parent", "envelope", "products", "unit_bytes"]
    doc = {"fields": fields, "spans": tracer.spans, "counts": dict(tracer.counts)}
    path.write_text(json.dumps(doc))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one round and pin its report digests for this seed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "padicdyn" / "__init__.py").is_file():
        print(f"error: no padicdyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    padicdyn = importlib.import_module("padicdyn")
    cli = importlib.import_module("padicdyn.cli")
    saved = tracing.originals()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = metadata(padicdyn, args)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        instances = workloads.generate(args.workload, args.seed)
        expected, pinned = ({}, False) if args.record_digests else \
            expected_digests(args.workload, args.seed)
        checker = Checker(cli, instances, workdir, expected, pinned)
        tracing.assert_pristine(saved)
        if args.record_digests:
            for index in range(len(instances)):
                checker.run(index)
            if checker.failures:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            record_digests(checker, args.workload, args.seed)
            print(f"pinned {len(instances)} report digests for {args.workload} seed {args.seed}")
            return 0
        if args.trace:
            untraced_s = sum(checker.run(i) for i in range(len(instances)))
            tracer = tracing.Tracer(importlib.import_module("padicdyn._core").INF_BOUND)
            tracer.install()
            try:
                traced_s = 0.0
                for index in range(len(instances)):
                    tracer.check = index
                    traced_s += checker.run(index)
            finally:
                tracer.restore()
            tracing.assert_pristine(saved)
            values = per_layer(tracer, untraced_s, traced_s)
            meta["checks_traced"] = len(instances)
            wanted = declared["per_layer"]
            write_spans(tracer, WORK / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            setup_s = measure_setup_s()
            tracing.assert_pristine(saved)
            rounds = timed_rounds(checker, args.seconds)
            values = end_to_end(checker, rounds, setup_s)
            meta["rounds"] = len(rounds)
            meta["samples"] = sum(len(ts) for ts in rounds)
            meta["round_check_s"] = rounds
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }
    for line in checker.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=1) + "\n")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "round_check_s"},
                               sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_share':40s} {len(checker.failures) / checker.attempted:>16.6g} share")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
