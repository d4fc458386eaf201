"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main, parse_overrides


class TestParseOverrides:
    def test_literals(self):
        overrides = parse_overrides(
            ["count=5", "rate=0.5", "flag=True", "counts=(100, 200)"]
        )
        assert overrides == {
            "count": 5,
            "rate": 0.5,
            "flag": True,
            "counts": (100, 200),
        }

    def test_string_fallback(self):
        assert parse_overrides(["name=free_space"]) == {"name": "free_space"}

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_overrides(["justakey"])


class TestCommands:
    def test_list_shows_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("F1", "T4", "T11", "A1"):
            assert experiment_id in out

    def test_macs_tags_capabilities(self, capsys):
        assert main(["macs"]) == 0
        lines = {
            line.split()[0]: line for line in capsys.readouterr().out.splitlines()
        }
        assert "[slotted, rx=sic]" in lines["sic_aloha"]
        assert "[" not in lines["shepard"]

    def test_run_fast_experiment(self, capsys):
        code = main(
            [
                "run",
                "F1",
                "--set", "mc_station_counts=(300,)",
                "--set", "mc_duty_cycles=(0.5,)",
                "--set", "trials=4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "F1:" in out
        assert "claim" in out

    def test_run_unknown_id_fails_cleanly(self, capsys):
        assert main(["run", "Z9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_malformed_override_fails_cleanly(self, capsys):
        assert main(["run", "F1", "--set", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "T4", "--set", "bogus=1"],
            ["run", "T7", "--set", "station_count=8", "--set", "bogus=1"],
            ["trace", "--experiment", "T4", "--set", "bogus=1",
             "--jsonl", "{tmp}/t.jsonl"],
        ],
        ids=["run", "run-with-a-known-key", "trace"],
    )
    def test_unknown_set_key_is_a_usage_error(self, capsys, tmp_path, argv):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert "'bogus'" in captured.err
        assert "station_count" in captured.err  # the parameters are listed
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_design_command(self, capsys):
        assert main(["design", "--stations", "1e9", "--duty", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "processing_gain_db" in out

    def test_metro_command(self, capsys):
        assert main(["metro", "--stations", "1e6"]) == 0
        out = capsys.readouterr().out
        assert "raw_rate_mbps" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["design", "--duty", "0"], "duty cycle"),
            (["design", "--stations", "2"], "M > e"),
            (["metro", "--stations", "2"], "M > e"),
            (["metro", "--beta", "0.5"], "beta"),
            # NaN passes a bare comparison, and inf reached the
            # summary's dB conversion as a traceback.
            (["design", "--stations", "nan"], "M > e"),
            (["design", "--stations", "inf"], "M > e"),
            (["design", "--margin", "nan"], "detection margin"),
            (["design", "--margin", "inf"], "detection margin"),
            (["design", "--reach-doublings", "nan"], "reach doublings"),
            (["metro", "--stations", "nan"], "M > e"),
            (["metro", "--stations", "inf"], "M > e"),
            (["metro", "--bandwidth", "nan"], "bandwidth"),
            (["metro", "--bandwidth", "inf"], "bandwidth"),
            (["metro", "--beta", "nan"], "beta"),
            (["metro", "--reach-doublings", "nan"], "reach doublings"),
            # Finite inputs whose summary overflows, leaves a math
            # domain or holds a non-finite line.
            (["metro", "--reach-doublings", "1e6"], "MetroProjection: "),
            (["design", "--reach-doublings", "1e308"], "DesignPoint: "),
            (["metro", "--duty", "1e-320"], "MetroProjection: "),
            (["design", "--duty", "1e-320"], "characteristic_snr_db is inf"),
        ],
    )
    def test_out_of_range_calculator_input_is_a_usage_error(
        self, capsys, argv, message
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_verify_determinism_command(self, capsys):
        code = main(
            [
                "verify-determinism",
                "--stations", "25",
                "--duration-slots", "40",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "determinism verified" in out
        digests = [
            line.split()[-1] for line in out.splitlines() if "replay digest" in line
        ]
        assert len(digests) == 2 and digests[0] == digests[1]

    @pytest.mark.parametrize("command", ["verify-determinism", "report"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--duration-slots", "0"),
            ("--duration-slots", "-1"),
            ("--duration-slots", "nan"),
            ("--stations", "0"),
            ("--stations", "1"),
            ("--stations", "2.5"),
            ("--load", "-1"),
            ("--load", "nan"),
        ],
    )
    def test_out_of_range_size_is_a_usage_error(
        self, capsys, command, flag, value
    ):
        argv = [command, flag, value]
        if command == "report":
            argv += ["--timeline", "duty"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestParallelCommands:
    TINY_T2 = [
        "--set", "station_count=10",
        "--set", "duration_slots=60.0",
        "--set", "load_packets_per_slot=0.2",
    ]

    def test_sweep_command_writes_report(self, capsys, tmp_path):
        import json

        output = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--experiment", "T2",
                "--values", "0.2,0.3",
                "--output", str(output),
                *self.TINY_T2,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep T2 over receive_fractions" in out
        payload = json.loads(output.read_text())
        assert payload["experiment_id"] == "T2"
        assert payload["values"] == [0.2, 0.3]
        assert len(payload["tasks"]) == 2
        assert all(task["ok"] for task in payload["tasks"])

    def test_sweep_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["sweep", "--experiment", "Z9"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_unknown_set_key_is_a_usage_error(self, capsys):
        code = main(["sweep", "--experiment", "T7", "--set", "jobs=2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "'jobs'" in captured.err
        assert "loads_packets_per_slot" in captured.err
        assert captured.out == ""

    def test_sweep_unknown_parameter_fails_cleanly(self, capsys):
        code = main(
            ["sweep", "--experiment", "T2", "--parameter", "bogus"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run-all", "--timeout-s", "0"], "--timeout-s"),
            (["run-all", "--retries", "-1"], "--retries"),
            (["sweep", "--experiment", "T7", "--timeout-s", "-1"], "--timeout-s"),
            (["sweep", "--experiment", "T7", "--retries", "-1"], "--retries"),
            (
                ["trace", "--experiment", "T7", "--jsonl", "{tmp}/t.jsonl",
                 "--rotate-bytes", "0"],
                "--rotate-bytes",
            ),
        ],
        ids=["run-all-timeout", "run-all-retries", "sweep-timeout",
             "sweep-retries", "trace-rotate"],
    )
    def test_out_of_range_flag_is_a_usage_error(
        self, capsys, tmp_path, argv, flag
    ):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(tmp=tmp_path) for arg in argv])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_all_parser_accepts_the_ci_invocation(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "run-all",
                "--jobs", "2",
                "--quick",
                "--no-progress",
                "--output", "suite-report.json",
            ]
        )
        assert args.jobs == 2
        assert args.quick and args.no_progress
        assert args.output == "suite-report.json"


class TestCacheCommands:
    TINY_T7 = [
        "--experiment", "T7",
        "--values", "0.05",
        "--set", "station_count=8",
        "--set", "duration_slots=60",
    ]

    def populate(self, cache_dir, capsys):
        assert main(["sweep", *self.TINY_T7, "--cache", str(cache_dir)]) == 0
        return capsys.readouterr()

    def test_sweep_cache_cold_then_warm(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = self.populate(cache_dir, capsys)
        assert "0/1 hits (0.0%)" in cold.err
        assert "1 written" in cold.err
        warm = self.populate(cache_dir, capsys)
        assert "1/1 hits (100.0%)" in warm.err
        assert "0 written" in warm.err
        assert warm.out == cold.out  # byte-identical report

    def test_stats_command(self, capsys, tmp_path):
        import json

        cache_dir = tmp_path / "cache"
        self.populate(cache_dir, capsys)
        assert main(["cache", "stats", str(cache_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["quarantined"] == 0

    def test_verify_command(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self.populate(cache_dir, capsys)
        assert main(["cache", "verify", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "1" in out

    def test_verify_flags_corruption(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self.populate(cache_dir, capsys)
        objects = cache_dir / "objects"
        entry = next(objects.glob("*/*.json"))
        entry.write_text("{torn write")
        assert main(["cache", "verify", str(cache_dir)]) == 1
        assert "corrupt_quarantined: 1" in capsys.readouterr().out

    def test_gc_command(self, capsys, tmp_path):
        import json

        cache_dir = tmp_path / "cache"
        self.populate(cache_dir, capsys)
        code = main(
            ["cache", "gc", str(cache_dir), "--max-age-s", "0", "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] == 1
        assert report["remaining_entries"] == 0

    def test_gc_requires_a_limit(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self.populate(cache_dir, capsys)
        assert main(["cache", "gc", str(cache_dir)]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--max-bytes", "-1"), ("--max-age-s", "-1")]
    )
    def test_gc_negative_limit_is_a_usage_error(
        self, capsys, tmp_path, flag, value
    ):
        cache_dir = tmp_path / "cache"
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", str(cache_dir), flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_cache_opens_past_a_killed_marker_write(self, capsys, tmp_path):
        import json
        import os

        (tmp_path / f".tmp.{os.getpid() + 1}.cache.json").write_text("{")
        assert main(["cache", "stats", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_refused_sweep_leaves_no_cache(self, capsys, tmp_path):
        # T8 takes no seed, so replications are refused before the
        # cache directory is created.
        cache_dir = tmp_path / "cache"
        code = main(
            [
                "sweep", "--experiment", "T8", "--replications", "2",
                "--cache", str(cache_dir),
            ]
        )
        assert code == 2
        assert "replications" in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_repeated_sweep_values_leave_no_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["sweep", "--experiment", "T7", "--values", "0.05,0.05"]
        assert main([*argv, "--cache", str(cache_dir)]) == 2
        assert "sweep values repeat" in capsys.readouterr().err
        assert not cache_dir.exists()

    @pytest.mark.parametrize(
        "argv", [["sweep", *TINY_T7], ["run-all", "--quick", "--no-progress"]]
    )
    def test_foreign_cache_directory_is_a_usage_error(self, argv, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("mine")
        assert main([*argv, "--cache", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert "no cache marker" in captured.err
        assert captured.out == ""

    def test_cache_refuses_foreign_directory(self, capsys, tmp_path):
        (tmp_path / "precious.txt").write_text("data")
        assert main(["cache", "stats", str(tmp_path)]) == 2
        assert "no cache marker" in capsys.readouterr().err


class TestTraceCommand:
    T7_TINY = [
        "--experiment", "T7",
        "--set", "station_count=12",
        "--set", "loads_packets_per_slot=(0.05,)",
        "--set", "duration_slots=30",
    ]

    def test_records_jsonl_and_binary_identically(self, capsys, tmp_path):
        jsonl = tmp_path / "t7.jsonl"
        binary = tmp_path / "t7.npz"
        code = main(
            ["trace", *self.T7_TINY,
             "--jsonl", str(jsonl), "--binary", str(binary), "--summary"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T7:" in out
        assert "events across" in out

        assert main(["trace", "--read", str(jsonl)]) == 0
        from_jsonl = capsys.readouterr().out
        assert main(["trace", "--read", str(binary)]) == 0
        from_binary = capsys.readouterr().out
        assert from_jsonl == from_binary
        assert '"kind": "tx_start"' in from_jsonl

    def test_read_filters_by_kind_and_limit(self, capsys, tmp_path):
        jsonl = tmp_path / "t7.jsonl"
        assert main(["trace", *self.T7_TINY, "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()
        code = main(
            ["trace", "--read", str(jsonl),
             "--kind", "delivered", "--limit", "3"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all('"kind": "delivered"' in line for line in lines)

    def test_read_prints_payload_with_tuples_as_lists(self, capsys, tmp_path):
        from repro.obs import JsonlSink
        from repro.obs.events import RxFail

        path = str(tmp_path / "one.jsonl")
        sink = JsonlSink(path)
        sink.emit(
            RxFail(
                time=3.0, receiver=1, source=2, reason="sir",
                types=(2, 3), packet=5, min_sir=0.1,
            )
        )
        sink.close()
        assert main(["trace", "--read", path]) == 0
        assert capsys.readouterr().out == (
            '{"kind": "rx_fail", "min_sir": 0.1, "packet": 5, '
            '"reason": "sir", "receiver": 1, "source": 2, "time": 3.0, '
            '"types": [2, 3]}\n'
        )

    @pytest.mark.parametrize(
        "experiment, station_count", [("A7", 40), ("T10", 24)]
    )
    def test_trace_prints_the_same_rows_as_run(
        self, capsys, tmp_path, experiment, station_count
    ):
        # Every network an experiment builds under the trace command
        # must report what it reports under run: no sink of an earlier
        # network may feed a later network's results.
        overrides = [
            "--set", f"station_count={station_count}",
            "--set", "duration_slots=150",
        ]
        assert main(["run", experiment, *overrides]) == 0
        ran = capsys.readouterr().out
        jsonl = str(tmp_path / "trace.jsonl")
        assert main(
            ["trace", "--experiment", experiment, *overrides, "--jsonl", jsonl]
        ) == 0
        traced = capsys.readouterr().out
        assert traced == ran + f"wrote {jsonl}\n"

    def test_requires_a_sink(self, capsys):
        assert main(["trace", "--experiment", "T7"]) == 2
        assert "--jsonl" in capsys.readouterr().err

    def test_requires_experiment_or_read(self, capsys):
        assert main(["trace"]) == 2
        assert "--experiment" in capsys.readouterr().err

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["trace", "--experiment", "Z9", "--jsonl", "x"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestReportCommand:
    def test_timeline_duty_renders_per_station_series(self, capsys):
        code = main(
            ["report", "--timeline", "duty",
             "--stations", "12", "--duration-slots", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "duty timeline: 12 stations" in out
        assert "s000 |" in out and "s011 |" in out
        assert "duty cycle across stations: mean" in out

    def test_timeline_loss_and_queue_render(self, capsys):
        for metric in ("loss", "queue", "sir"):
            code = main(
                ["report", "--timeline", metric,
                 "--stations", "8", "--duration-slots", "40"]
            )
            assert code == 0
            assert f"{metric} timeline: 8 stations" in capsys.readouterr().out

    def test_rejects_unknown_metric(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--timeline", "bogus"])

    @pytest.mark.parametrize("width", ["0", "-5", "nan", "inf", "wide"])
    def test_rejects_a_window_that_is_not_positive_and_finite(
        self, capsys, width
    ):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--timeline", "duty", "--window-slots", width])
        assert exc.value.code == 2
        assert "--window-slots" in capsys.readouterr().err
