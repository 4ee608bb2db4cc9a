"""Self-test of the census benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

It checks the benchmark, not the program, so it is kept out of the test
suite under ``tests/``. It checks that:

1. ``BENCHMARK.json`` declares exactly the metrics ``run.py`` reports, with
   the same units.
2. Every workload at ``--scale tiny``, traced and untraced, prints each
   metric by name with its unit, plus ``error_rate``, and ends in a result
   line holding every declared metric; nothing fails.
3. The output checks bite: with one expected cr3 count or one pdcr2
   fraction corrupted, every invocation of that workload fails and
   ``correct`` is false.
4. Without the package source next to it, the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_tiny(workload: str, trace: int) -> tuple[list[str], dict]:
    """The benchmark's stdout lines and its parsed result line, in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--scale", "tiny", "--seconds", "0.5",
                         "--trace", str(trace)])
    lines = buf.getvalue().splitlines()
    expect(code == 0, f"{workload} trace={trace} exits 0")
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared_e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(declared_layer == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    for workload in run.WORKLOADS:
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            lines, result = run_tiny(workload, trace)
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, nothing failed")
            expect({k: v["unit"] for k, v in result["metrics"].items()} == declared,
                   f"{workload} trace={trace}: result line holds every metric with its unit")
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                       if line and not line.startswith("#")}
            want = dict(declared, error_rate="1")
            expect(all(printed.get(k) == u for k, u in want.items()),
                   f"{workload} trace={trace}: every metric printed by name with its unit")

    saved = dict(run.CR3_COUNTS)
    run.CR3_COUNTS[10**5] = (33365, 33310, 33325)
    try:
        for workload in ("table-cr3", "above-bound-cr3"):
            _, result = run_tiny(workload, 0)
            expect(not result["correct"] and result["failed"] == result["attempted"],
                   f"{workload}: a wrong expected cr3 count fails every invocation")
    finally:
        run.CR3_COUNTS.clear()
        run.CR3_COUNTS.update(saved)

    saved = dict(run.PDCR2_FRACTIONS)
    run.PDCR2_FRACTIONS[10**5] = ("0.502601", "0.497399")
    try:
        _, result = run_tiny("series-pdcr2", 0)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               "series-pdcr2: a wrong expected pdcr2 fraction fails every invocation")
    finally:
        run.PDCR2_FRACTIONS.clear()
        run.PDCR2_FRACTIONS.update(saved)

    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table-cr3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the package source: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
