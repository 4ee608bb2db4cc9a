import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from collatz_census import cli
from collatz_census.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def _signal_from_a_chunk(capsys, tmp_path, signame, word, code, *knobs, second=None):
    """Send a real signal from the tally of a checkpointed census in a child
    process, once the chunk ending at 40000 is absorbed, and with ``second``
    another one from inside the save it starts: no traceback, one stderr
    line for the first signal, the prefix saved, and a resume that prints
    the uninterrupted bytes."""
    script = textwrap.dedent(
        f"""
        import os, signal, sys
        from collatz_census import census, cli
        exact, fsync = census._count, os.fsync
        def count(sweep, absorb):
            def signalling(hi, totals):
                absorb(hi, totals)
                if hi == 40000:
                    if {second!r}:
                        os.fsync = save
                    os.kill(os.getpid(), signal.{signame})
            exact(sweep, signalling)
        def save(fd):
            os.kill(os.getpid(), getattr(signal, {second!r}))
            fsync(fd)
        census._count = count
        sys.exit(cli.main(sys.argv[1:]))
        """
    )
    path = tmp_path / "run.ckpt"
    argv = ["census", "100000", "--chunk-size", "1000", "--format", "csv", *knobs]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv, "--checkpoint", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (code, "")
    match = re.fullmatch(
        rf"{word}: census stopped at next_n=(\d+); (.+) holds \[1, (\d+)\]; "
        r"continue with --resume\n",
        proc.stderr,
    )
    assert match, proc.stderr
    next_n = int(match[1])
    assert match[2] == str(path) and int(match[3]) == next_n - 1
    assert next_n <= 40001 and next_n % 1000 == 1
    assert json.loads(path.read_text())["next_n"] == next_n
    resumed = run_cli(capsys, *argv, "--checkpoint", str(path), "--resume")
    assert resumed[:2] == (0, run_cli(capsys, *argv)[1])


class TestClassify:
    def test_fast_default(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "27", "--map", "cr3")
        assert code == 0
        assert "label=1" in out and "path=fast" in out

    def test_direct_reports_steps(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "27", "--map", "cr3", "--path", "direct")
        assert code == 0
        assert "label=1" in out and "steps=38" in out and "path=direct" in out

    def test_pdcr2_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "1", "--map", "pdcr2")
        assert code == 0
        assert "label=1" in out

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "0"])
        assert exc.value.code == 2

    def test_sign_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "+5"])
        assert exc.value.code == 2

    def test_whitespace_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", " 5"])
        assert exc.value.code == 2

    def test_beyond_range_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(2**128)])
        assert exc.value.code == 2

    def test_overflowing_trajectory_is_anomaly(self, capsys):
        code, _, err = run_cli(capsys, "classify", str(2**128 - 1), "--path", "direct")
        assert code == 1
        assert "128-bit" in err

    def test_fast_path_builds_only_the_two_entry_cache(self, capsys, monkeypatch):
        bounds = []
        exact = cli.build_residue_cache

        def recording(basis, bound, *args):
            bounds.append(bound)
            return exact(basis, bound, *args)

        monkeypatch.setattr(cli, "build_residue_cache", recording)
        for n in (1, 27, 65537, 2**100 + 7):
            for map_name in ("cr3", "pdcr2"):
                assert run_cli(capsys, "classify", str(n), "--map", map_name)[0] == 0
        assert bounds == [2] * 8

    @pytest.mark.parametrize("map_name", ["cr3", "pdcr2"])
    @pytest.mark.parametrize("n", [1, 2, 27, 65535, 65537, 2**64 - 1, 2**64 + 1, 2**100 + 7])
    def test_fast_and_direct_labels_agree(self, capsys, map_name, n):
        labels = []
        for path in ("fast", "direct"):
            code, out, err = run_cli(capsys, "classify", str(n), "--map", map_name, "--path", path)
            assert (code, err) == (0, "")
            labels.append(re.search(r" label=([124]) ", out).group(1))
        assert labels[0] == labels[1]


class TestTrace:
    def test_cr_from_three(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "3", "--map", "cr")
        assert code == 0
        assert out.splitlines()[0] == "3 10 5 16 8 4 2 1"
        assert "reached_one" in out

    def test_cr3_fixed_point(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "4", "--map", "cr3")
        assert code == 0
        assert out.splitlines()[0] == "4 4"
        assert "reached_fixed_point" in out

    def test_pdcr_from_three(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "3", "--map", "pdcr")
        assert code == 0
        assert out.splitlines()[0] == "3 5 8 4 2 1"

    def test_budget_is_reported_not_fatal(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "27", "--map", "cr", "--max-steps", "5")
        assert code == 0
        assert "budget_exhausted" in out


class TestCensusCommand:
    def test_table_smallest(self, capsys):
        code, out, _ = run_cli(capsys, "census", "1", "--map", "cr3")
        assert code == 0
        assert "S=1" in out

    def test_pdcr2_ten_csv(self, capsys):
        code, out, _ = run_cli(capsys, "census", "10", "--map", "pdcr2", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["S", "map", "class", "count", "fraction"]
        assert rows[1] == ["10", "pdcr2", "1", "4", "0.400000"]
        assert rows[2] == ["10", "pdcr2", "2", "6", "0.600000"]

    def test_csv_and_json_agree(self, capsys):
        _, csv_out, _ = run_cli(capsys, "census", "5000", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "census", "5000", "--format", "json")
        rows = parse_csv(csv_out)[1:]
        doc = json.loads(json_out)
        assert doc["S"] == 5000 and doc["map"] == "cr3"
        for row, entry in zip(rows, doc["classes"]):
            assert row[2] == str(entry["class"])
            assert row[3] == str(entry["count"])
            assert row[4] == entry["fraction"]

    def test_reinvocation_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "census", "3000", "--format", "csv", "--chunk-size", "100")
        _, second, _ = run_cli(capsys, "census", "3000", "--format", "csv", "--chunk-size", "17")
        assert first == second  # csv carries no engine metadata

    def test_workers_is_accepted_and_ignored(self, capsys):
        code, with_workers, err = run_cli(capsys, "census", "3000", "--workers", "4",
                                          "--format", "json")
        assert (code, err) == (0, "")
        _, without, _ = run_cli(capsys, "census", "3000", "--format", "json")
        assert mask_elapsed(with_workers) == mask_elapsed(without)

    def test_workers_is_still_validated_and_hidden(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "3000", "--workers", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["census", "--help"])
        assert "--workers" not in capsys.readouterr().out

    def test_json_exact_ratio(self, capsys):
        _, out, _ = run_cli(capsys, "census", "10", "--format", "json")
        doc = json.loads(out)
        by_class = {e["class"]: e for e in doc["classes"]}
        assert by_class[1]["exact"] == "3/10"
        assert by_class[2]["exact"] == "2/5"

    def test_checkpoint_written_and_resumable(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        code, first, _ = run_cli(
            capsys, "census", "2000", "--checkpoint", str(path), "--format", "csv"
        )
        assert code == 0
        saved = json.loads(path.read_text())
        assert saved["next_n"] == 2001
        code, resumed, _ = run_cli(
            capsys, "census", "2000", "--checkpoint", str(path), "--resume",
            "--format", "csv",
        )
        assert code == 0
        assert resumed == first

    def test_resume_without_checkpoint_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "census", "100", "--resume")
        assert code == 2
        assert "--checkpoint" in err

    def test_resume_mismatch_is_anomaly(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        run_cli(capsys, "census", "100", "--checkpoint", str(path))
        code, _, err = run_cli(
            capsys, "census", "200", "--checkpoint", str(path), "--resume"
        )
        assert code == 1
        assert "S=" in err

    def test_unwritable_checkpoint_dir_is_anomaly(self, capsys, tmp_path):
        path = tmp_path / "missing_dir" / "cp.json"
        code, out, err = run_cli(capsys, "census", "1000", "--checkpoint", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write checkpoint")
        assert "Traceback" not in err

    def test_version_1_checkpoint_is_anomaly(self, capsys, tmp_path):
        # version 1 recorded no step budget; it is refused, not migrated
        path = tmp_path / "run.ckpt"
        run_cli(capsys, "census", "100", "--checkpoint", str(path))
        doc = json.loads(path.read_text())
        del doc["max_steps"]
        doc["format_version"] = 1
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "census", "100", "--checkpoint", str(path), "--resume"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: unsupported checkpoint version 1 (expected 2)")

    def test_malformed_partial_counts_is_anomaly(self, capsys, tmp_path):
        path = tmp_path / "run.ckpt"
        run_cli(capsys, "census", "100", "--checkpoint", str(path))
        doc = json.loads(path.read_text())
        doc["partial_counts"]["1"] += 1
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "census", "100", "--checkpoint", str(path), "--resume"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid partial counts: counts sum to 101, "
            "range [1, 100] holds 100 numbers\n"
        )

    def test_interrupt_saves_the_prefix_and_resume_gives_the_same_bytes(
        self, capsys, tmp_path, interrupt_at, monkeypatch
    ):
        argv = ["census", "30000", "--chunk-size", "1000", "--format", "csv"]
        _, uninterrupted, _ = run_cli(capsys, *argv)
        path = tmp_path / "run.ckpt"
        interrupt_at(12001)
        code, out, err = run_cli(capsys, *argv, "--checkpoint", str(path))
        assert (code, out) == (130, "")
        assert err == (
            f"interrupted: census stopped at next_n=12001; {path} holds [1, 12000]; "
            "continue with --resume\n"
        )
        assert json.loads(path.read_text())["next_n"] == 12001
        monkeypatch.undo()
        code, resumed, _ = run_cli(capsys, *argv, "--checkpoint", str(path), "--resume")
        assert (code, resumed) == (0, uninterrupted)

    def test_interrupt_without_checkpoint_names_next_n(self, capsys, interrupt_at):
        interrupt_at(1, counted=True)  # nothing is absorbed before it
        code, out, err = run_cli(capsys, "census", "5000", "--chunk-size", "1000")
        assert (code, out) == (130, "")
        assert err == "interrupted: census stopped at next_n=1; no checkpoint was given\n"

    def test_sigint_exits_130_without_a_traceback(self, capsys, tmp_path):
        # a real SIGINT, sent from the tally once it is running
        _signal_from_a_chunk(capsys, tmp_path, "SIGINT", "interrupted", 130)

    def test_sigterm_saves_the_prefix_and_exits_143(self, capsys, tmp_path):
        # SIGTERM takes the Ctrl-C path, here from a chunk past the cache
        # bound, whose odd members descend and whose evens are read off
        _signal_from_a_chunk(
            capsys, tmp_path, "SIGTERM", "terminated", 143, "--cache-bound", "4096"
        )

    @pytest.mark.parametrize(
        "first, second, word, code",
        [
            ("SIGINT", "SIGINT", "interrupted", 130),
            ("SIGINT", "SIGTERM", "interrupted", 130),
            ("SIGTERM", "SIGINT", "terminated", 143),
        ],
    )
    def test_a_second_signal_during_the_save_keeps_the_prefix(
        self, capsys, tmp_path, first, second, word, code
    ):
        # the second lands between the temp file's write and its rename
        _signal_from_a_chunk(capsys, tmp_path, first, word, code, second=second)

    def test_the_save_after_an_interrupt_restores_both_handlers(
        self, capsys, tmp_path, interrupt_at
    ):
        before = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        interrupt_at(2001)
        argv = ["census", "5000", "--chunk-size", "1000", "--checkpoint", str(tmp_path / "c")]
        assert run_cli(capsys, *argv)[0] == 130
        after = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        assert after[0] is before[0] and after[1] is before[1]

    def test_census_restores_the_sigterm_handler(self, capsys):
        before = signal.getsignal(signal.SIGTERM)
        assert run_cli(capsys, "census", "1000")[0] == 0
        assert signal.getsignal(signal.SIGTERM) is before

    def test_missing_checkpoint_is_anomaly(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "census", "100", "--checkpoint", str(tmp_path / "no.ckpt"), "--resume"
        )
        assert code == 1
        assert "checkpoint" in err.lower()


class TestSeriesCommand:
    def test_linear_two_points_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "10", "--points", "2", "--spacing", "linear",
            "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["S", "class", "fraction"]
        assert ["5", "1", "0.200000"] in rows
        assert ["10", "1", "0.300000"] in rows
        assert ["10", "2", "0.400000"] in rows
        assert ["10", "4", "0.300000"] in rows

    def test_single_point_trivial_universe(self, capsys):
        code, out, _ = run_cli(capsys, "series", "1", "--points", "1", "--format", "csv")
        assert code == 0
        assert ["1", "1", "1.000000"] in parse_csv(out)

    def test_json_matches_csv(self, capsys):
        _, csv_out, _ = run_cli(capsys, "series", "100", "--points", "2", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "series", "100", "--points", "2", "--format", "json")
        doc = json.loads(json_out)
        csv_rows = {(r[0], r[1]): r[2] for r in parse_csv(csv_out)[1:]}
        for point in doc["points"]:
            for label, fraction in point["fractions"].items():
                assert csv_rows[(str(point["S"]), label)] == fraction

    def test_too_many_points_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "series", "5", "--points", "6")
        assert code == 2
        assert "points" in err

    def test_interrupt_exits_130_without_a_traceback(self, capsys, interrupt_at):
        interrupt_at(1, counted=True)  # nothing is absorbed before it
        code, out, err = run_cli(capsys, "series", "5000")
        assert (code, out, err) == (130, "", "interrupted\n")


class TestVerifyCommand:
    def test_cr3(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "2000", "--map", "cr3")
        assert code == 0
        assert "0 mismatches" in out

    def test_pdcr2_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "1", "--map", "pdcr2")
        assert code == 0
        assert "0 mismatches" in out

    def test_base_map_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "10000", "--map", "cr"])
        assert exc.value.code == 2


_BIG = "340282366920938463463374607431768211455"  # 2^128 - 1: 3n + 1 leaves 128 bits


_GOLDEN = [
    (["classify", "27"], 0, "n=27 map=cr3 label=1 path=fast\n", ""),
    (["classify", "27", "--path", "direct"], 0, "n=27 map=cr3 label=1 steps=38 path=direct\n", ""),
    (["classify", "65537"], 0, "n=65537 map=cr3 label=1 path=fast\n", ""),
    (["classify", "1000000000039"], 0, "n=1000000000039 map=cr3 label=4 path=fast\n", ""),
    (
        ["classify", "1000000000039", "--map", "pdcr2"],
        0,
        "n=1000000000039 map=pdcr2 label=1 path=fast\n",
        "",
    ),
    (
        ["classify", "1180591620717411303425"],
        0,
        "n=1180591620717411303425 map=cr3 label=1 path=fast\n",
        "",
    ),
    (
        ["classify", "18446744073709551615"],
        0,
        "n=18446744073709551615 map=cr3 label=4 path=fast\n",
        "",
    ),
    (
        ["classify", _BIG],
        1,
        "",
        f"error: trajectory of {_BIG} exceeded the 128-bit limit at value {_BIG}\n",
    ),
    (["verify", "100000"], 0, "checked 1..100000 map=cr3: 0 mismatches\n", ""),
    (["verify", "100000", "--map", "pdcr2"], 0, "checked 1..100000 map=pdcr2: 0 mismatches\n", ""),
]


class TestGoldenOutput:
    """Exact stdout, stderr and exit code of the fast route's commands, on
    both sides of 2^64. ``classify 65537`` stays pinned from when classify
    read a 2^16-entry table; it now descends into the two-entry cache."""

    @pytest.mark.parametrize(
        "argv, code, out, err", [pytest.param(*g, id=" ".join(g[0])) for g in _GOLDEN]
    )
    def test_bytes(self, capsys, argv, code, out, err):
        assert run_cli(capsys, *argv) == (code, out, err)


_GOLDEN_DIR = Path(__file__).parent / "golden"

# every report is pinned in table, csv and json
_REPORTS = [
    (["census", "100000", "--map", "cr3"], "census-cr3"),
    (["census", "100000", "--map", "pdcr2"], "census-pdcr2"),
    (["series", "100000", "--map", "cr3", "--points", "7"], "series-cr3-log7"),
    (
        ["series", "100000", "--map", "pdcr2", "--points", "4", "--spacing", "linear"],
        "series-pdcr2-linear4",
    ),
]


def mask_elapsed(text):
    text = re.sub(r"elapsed=[0-9]+\.[0-9]{2}s", "elapsed=<masked>s", text)
    return re.sub(r'"elapsed_seconds": [0-9]+\.[0-9]+', '"elapsed_seconds": <masked>', text)


class TestGoldenReports:
    """Exact census and series reports in every format for both maps; only
    the engine's elapsed time is masked. The files hold the bytes, csv's
    CRLF line ends included."""

    @pytest.mark.parametrize(
        "argv, name, fmt",
        [
            pytest.param(argv, name, fmt, id=f"{name}-{fmt}")
            for argv, name in _REPORTS
            for fmt in ("table", "csv", "json")
        ],
    )
    def test_bytes(self, capsys, argv, name, fmt):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        golden = (_GOLDEN_DIR / f"{name}-{fmt}.out").read_bytes().decode("utf-8")
        assert mask_elapsed(out) == golden
