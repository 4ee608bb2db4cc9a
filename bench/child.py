"""One CLI invocation in a fresh process, timed around ``cli.main``.

Run by ``run.py`` as ``python3 bench/child.py '<spec json>'``. The spec names
the package source directory, the CLI argv, and optionally a spans file
(traced run) or ``probe`` (import only, to time set-up). The CLI's own output
is captured and returned, with the timings, as one JSON line on stdout.
"""

import time

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    sys.path.insert(0, src)
    import numpy

    from collatz_census import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"collatz_census imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if spec.get("spans"):
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    report = {
        "ready": ready,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if not spec.get("probe"):
        out, err = io.StringIO(), io.StringIO()
        before = resource.getrusage(resource.RUSAGE_SELF)
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is not None:
                    code = tracer.call_root(cli.main, spec["argv"])
                else:
                    code = cli.main(spec["argv"])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = None
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF)
        report.update(
            exit=code,
            stdout=out.getvalue(),
            stderr=err.getvalue(),
            wall_s=wall,
            cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            peak_rss_mib=after.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        )
        if tracer is not None:
            tracer.dump(spec["spans"])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
