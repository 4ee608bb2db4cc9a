"""Census benchmark: end-to-end and per-layer metrics of the collatz-census CLI.

    python3 bench/run.py --workload table-cr3 --seed 1 --seconds 28 --trace 0

Each CLI invocation runs ``collatz_census.cli.main(argv)`` in a fresh
process (``child.py``) with the package taken from ``src/`` of this
checkout. The load is a closed loop: one invocation at a time, repeated
until ``--seconds`` have passed; every timing is the median over the
repetitions. Every output is checked against the paper's numbers.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions (spans recorded by ``layertrace.py`` from
outside the program) and prints the per-layer metrics. The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Every workload is an exhaustive range, so ``--seed`` is recorded but changes
no input. ``--scale tiny`` runs the same workloads on small ranges for
``selftest.py``. See ``README.md`` for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
import layertrace  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 10      # import-only launches per run, on top of every invocation's own
CALL_TIMEOUT_S = 150

# PAPER.md: cr3 class counts (classes 1, 2, 4) over [1, S]
CR3_COUNTS = {
    10**5: (33364, 33311, 33325),
    10**6: (332858, 333314, 333828),
    10**7: (3325705, 3338680, 3335615),
}
# pdcr2 class fractions (classes 1, 2) over [1, S]. 10^6 is the paper's;
# 10^7 and 10^5 are the seed's, which two cache routes (10^7) and the direct
# oracle via ``verify`` (10^5) agree on.
PDCR2_FRACTIONS = {
    10**5: ("0.502600", "0.497400"),
    10**6: ("0.499388", "0.500612"),
    10**7: ("0.498835", "0.501165"),
}

SCALES = {
    # S for census/series, cache bound for above-bound, V for verify
    "full": {"S": 10**7, "cache_bound": 1 << 20, "V": 10**5},
    "tiny": {"S": 10**5, "cache_bound": 1 << 12, "V": 2000},
}

END_TO_END = {
    "wall_s": "s",
    "numbers_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "classifier.build_s": "s",
    "classifier.build_entries_per_s": "1/s",
    "classifier.cache_nbytes": "B",
    "classifier.lookup_calls": "count",
    "classifier.lookup_s": "s",
    "classifier.lookups_per_s": "1/s",
    "classifier.direct_calls": "count",
    "classifier.direct_s": "s",
    "classifier.fast_s": "s",
    "kernel.composite_steps": "count",
    "kernel.composite_steps_per_s": "1/s",
    "census.chunks": "count",
    "census.chunk_s_sum": "s",
    "census.chunk_p50_ms": "ms",
    "census.chunk_max_ms": "ms",
    "census.chunk_self_s": "s",
    "census.tally_window_s": "s",
    "census.busy_parallelism": "ratio",
    "census.pool_speedup": "ratio",
    "census.merge_s": "s",
    "census.checkpoint_writes": "count",
    "census.checkpoint_write_s": "s",
    "census.checkpoint_bytes": "B",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------- checks


def _census_errors(out: str, s: int) -> list[str]:
    doc = json.loads(out)
    got = tuple(c["count"] for c in doc["classes"])
    want = CR3_COUNTS.get(s)
    if want is None:
        return [f"no expected cr3 counts for S={s}"]
    if doc["S"] != s or got != want:
        return [f"census S={doc['S']}: counts {got}, expected {want}"]
    return []


def _checkpoint_errors(path: Path, s: int) -> list[str]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    got = tuple(doc["partial_counts"][k] for k in ("1", "2", "4"))
    if doc["target_s"] != s or doc["next_n"] != s + 1 or got != CR3_COUNTS[s]:
        return [f"final checkpoint {doc} does not hold the finished census"]
    return []


def _series_errors(out: str, s: int) -> list[str]:
    doc = json.loads(out)
    points = {p["S"]: (p["fractions"]["1"], p["fractions"]["2"]) for p in doc["points"]}
    want = [10**k for k in range(1, len(str(s)))]
    if sorted(points) != want:
        return [f"series sample points {sorted(points)}, expected {want}"]
    errors = [
        f"series S={at}: fractions {points[at]}, expected {frac}"
        for at, frac in PDCR2_FRACTIONS.items()
        if at in points and points[at] != frac
    ]
    if s not in PDCR2_FRACTIONS:
        errors.append(f"no expected pdcr2 fractions for S={s}")
    return errors


def _verify_errors(out: str, v: int, map_name: str) -> list[str]:
    want = f"checked 1..{v} map={map_name}: 0 mismatches\n"
    return [] if out == want else [f"verify output {out!r}, expected {want!r}"]


# ------------------------------------------------------------- workloads


@dataclass
class Call:
    argv: list[str]
    numbers: int                      # numbers this call classifies
    check: object                     # stdout -> list of errors
    checkpoint: Path | None = None


@dataclass
class Workload:
    name: str
    scale: str
    calls: list[Call]
    pool_pass: bool = False           # traced run also times --workers 1
    cache_bounds: list[int] = field(default_factory=list)


def workload(name: str, scale: str, workers: int = NPROC) -> Workload:
    p = SCALES[scale]
    s, v, bound = p["S"], p["V"], p["cache_bound"]
    census = ["census", str(s), "--map", "cr3", "--workers", str(workers), "--format", "json"]
    if name == "table-cr3":
        return Workload(name, scale, [Call(census, s, lambda out: _census_errors(out, s))],
                        cache_bounds=[s + 1])
    if name == "above-bound-cr3":
        ckpt = OUT / f"checkpoint-{os.getpid()}.json"
        argv = census[:4] + ["--cache-bound", str(bound), "--checkpoint", str(ckpt)] + census[4:]
        return Workload(
            name,
            scale,
            [Call(argv, s, lambda out: _census_errors(out, s) + _checkpoint_errors(ckpt, s), ckpt)],
            pool_pass=True,
            cache_bounds=[bound],
        )
    if name == "series-pdcr2":
        argv = ["series", str(s), "--points", str(len(str(s)) - 1), "--spacing", "log",
                "--map", "pdcr2", "--format", "json"]
        return Workload(name, scale, [Call(argv, s, lambda out: _series_errors(out, s))],
                        cache_bounds=[s + 1])
    if name == "verify-both":
        calls = [
            Call(["verify", str(v), "--map", m], v,
                 lambda out, m=m: _verify_errors(out, v, m))
            for m in ("cr3", "pdcr2")
        ]
        return Workload(name, scale, calls, cache_bounds=[v + 1, v + 1])
    raise KeyError(name)


WORKLOADS = ("table-cr3", "above-bound-cr3", "series-pdcr2", "verify-both")


# ------------------------------------------------------------- launching


def launch(argv: list[str] | None, spans: Path | None = None) -> dict:
    """Run one CLI call (or an import-only probe when argv is None)."""
    spec = {"src": str(SRC), "argv": argv, "probe": argv is None,
            "spans": str(spans) if spans else None}
    launched = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(CHILD), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child failed ({proc.returncode}): {proc.stderr.strip()}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - launched
    return report


@dataclass
class Rep:
    """One repetition of a workload: all of its calls, in order."""

    reports: list[dict]
    errors: list[list[str]]
    numbers: int

    @property
    def failed(self) -> int:
        return sum(1 for e in self.errors if e)

    @property
    def wall_s(self) -> float:
        return sum(r["wall_s"] for r in self.reports)

    @property
    def cpu_s(self) -> float:
        return sum(r["cpu_s"] for r in self.reports)

    @property
    def peak_rss_mib(self) -> float:
        return max(r["peak_rss_mib"] for r in self.reports)


def run_rep(w: Workload, spans_dir: Path | None = None, tag: str = "") -> Rep:
    reports, errors = [], []
    for i, call in enumerate(w.calls):
        if call.checkpoint is not None:
            call.checkpoint.unlink(missing_ok=True)
        spans = spans_dir / f"{w.name}{tag}-{i}.json" if spans_dir else None
        r = launch(call.argv, spans)
        errs = []
        if r["exit"] != 0:
            errs.append(f"exit code {r['exit']}: {r['stderr'].strip()}")
        else:
            try:
                errs += call.check(r["stdout"])
            except (ValueError, KeyError, TypeError, OSError) as e:
                errs.append(f"unreadable output: {e!r}")
        if call.checkpoint is not None:
            call.checkpoint.unlink(missing_ok=True)
        if spans is not None:
            r["spans"] = layertrace.load_spans(spans)
        reports.append(r)
        errors.append(errs)
    return Rep(reports, errors, sum(c.numbers for c in w.calls))


# ------------------------------------------------------------- reporting


def _summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "min": min(values), "max": max(values)}


def machine_record(w: Workload, probe: dict, seed: int, scale: str) -> dict:
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    try:
        levels = [(int((c / "level").read_text()), (c / "size").read_text().strip())
                  for c in caches]
        if levels:
            llc = "L{} {}".format(*max(levels))
    except (OSError, ValueError):
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "workload": w.name,
        "scale": scale,
        "seed": seed,
        "git_sha": sha,
        "nproc": NPROC,
        "cpu_model": cpu_model,
        "last_level_cache": llc,
        # computed from the CLI's cache bound, not measured: the uint8 array
        # the build fills and the packed 2-bit cache it keeps
        "residue_array_bytes_computed": [
            {"cache_bound": b, "build_uint8": b, "packed_2bit": (b + 3) // 4}
            for b in w.cache_bounds
        ],
        "python": probe["python"],
        "numpy": probe["numpy"],
        "load_model": "closed loop, 1 client, 1 CLI invocation at a time",
    }


def _cpu_ticks() -> list[int] | None:
    """Machine-wide CPU ticks (user ... steal) from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
        return [int(v) for v in fields[1:9]]
    except (OSError, ValueError):
        return None


class _Pace:
    """Repeat while another repetition, at the median pace so far, fits in ``seconds``."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.monotonic()
        self.last: float | None = None
        self.durations: list[float] = []

    def another(self) -> bool:
        now = time.monotonic()
        if self.last is None:
            self.last = now
            return True
        self.durations.append(now - self.last)
        self.last = now
        return now - self.started + statistics.median(self.durations) <= self.seconds


def _tally(reps: list[Rep]) -> tuple[int, int, list[str]]:
    """Invocations attempted, invocations failed, and every error message."""
    attempted = sum(len(r.errors) for r in reps)
    failed = sum(r.failed for r in reps)
    return attempted, failed, [e for r in reps for errs in r.errors for e in errs]


def measure_end_to_end(w: Workload, seconds: float) -> tuple[dict, dict, list[Rep]]:
    probe = launch(None)  # warm-up: fills __pycache__ and the page cache
    setups = [launch(None)["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[Rep] = []
    pace = _Pace(seconds)
    while pace.another():
        reps.append(run_rep(w))
    good = [r for r in reps if not r.failed]
    setups += [r["setup_s"] for rep in reps for r in rep.reports]
    samples = {
        "wall_s": [r.wall_s for r in good],
        "numbers_per_s": [r.numbers / r.wall_s for r in good],
        "cpu_s": [r.cpu_s for r in good],
        "peak_rss_mib": [r.peak_rss_mib for r in good],
        "setup_s": setups,
    }
    return probe, {k: _summary(v) for k, v in samples.items() if v}, reps


def measure_layers(w: Workload, seconds: float) -> tuple[dict, dict, list[Rep]]:
    """Rounds of one untraced and one traced repetition (plus a traced
    ``--workers 1`` repetition where the pool speed-up is wanted)."""
    probe = launch(None)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    reps: list[Rep] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    rounds: list[dict] = []
    pace = _Pace(seconds)
    while pace.another():
        plain = run_rep(w)
        traced = run_rep(w, spans_dir)
        reps += [plain, traced]
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
        m = layertrace.layer_metrics([r["spans"] for r in traced.reports])
        if w.pool_pass:
            one = run_rep(workload(w.name, w.scale, workers=1), spans_dir, tag="-w1")
            reps.append(one)
            w1 = layertrace.layer_metrics([r["spans"] for r in one.reports])
            if m.get("census.tally_window_s"):
                m["census.pool_speedup"] = w1["census.tally_window_s"] / m["census.tally_window_s"]
        rounds.append(m)
    summaries = {
        name: _summary([r.get(name, 0.0) for r in rounds])
        for name in PER_LAYER if name != "trace.overhead_frac"
    }
    summaries["trace.overhead_frac"] = _summary(
        [statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0]
    )
    return probe, summaries, reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "collatz_census" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'collatz_census'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    w = workload(args.workload, args.scale)
    measure = measure_layers if args.trace else measure_end_to_end
    cpu_before = _cpu_ticks()
    probe, summaries, reps = measure(w, args.seconds)
    cpu_after = _cpu_ticks()
    attempted, failed, errors = _tally(reps)
    units = PER_LAYER if args.trace else END_TO_END

    record = machine_record(w, probe, args.seed, args.scale)
    if cpu_before and cpu_after:
        # share of this machine's CPU time the hypervisor withheld during the
        # run; explains a slow run without being a metric of the program
        total = sum(cpu_after) - sum(cpu_before)
        record["cpu_steal_share"] = round((cpu_after[7] - cpu_before[7]) / total, 4)
    for key, value in record.items():
        print(f"# {key}: {value}")
    for name, unit in units.items():
        s = summaries.get(name)
        if s is None:
            print(f"{name:34s} n/a {unit} (no successful invocation)")
            continue
        print(f"{name:34s} {s['median']:.6g} {unit}  (median of n={s['n']}, "
              f"q1={s['q1']:.6g}, q3={s['q3']:.6g})")
    print(f"{'error_rate':34s} {failed / attempted:.6g} 1  "
          f"({failed} of {attempted} invocations failed)")
    for e in errors[:10]:
        print(f"# error: {e}")

    record.update(trace=args.trace, attempted=attempted, failed=failed, metrics=summaries,
                  errors=errors)
    out = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    metrics = {name: {"value": summaries[name]["median"] if name in summaries else 0.0,
                      "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
