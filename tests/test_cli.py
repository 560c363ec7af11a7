"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestAreaCommand:
    def test_default(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "Area breakdown" in out
        assert "TOTAL" in out
        assert "60" in out  # LT-B ~60.3 mm^2

    def test_lt_large(self, capsys):
        assert main(["area", "--config", "lt-l"]) == 0
        assert "lt-l" in capsys.readouterr().out


class TestPowerCommand:
    def test_4bit(self, capsys):
        assert main(["power", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "laser" in out and "dac" in out

    def test_8bit_has_higher_total(self, capsys):
        main(["power", "--bits", "4"])
        out4 = capsys.readouterr().out
        main(["power", "--bits", "8"])
        out8 = capsys.readouterr().out

        def total(text):
            for line in text.splitlines():
                if line.startswith("TOTAL"):
                    return float(line.split()[1])
            raise AssertionError("no TOTAL line")

        assert total(out8) > 3 * total(out4)


class TestRunCommand:
    def test_deit_t(self, capsys):
        assert main(["run", "--model", "deit-t"]) == 0
        out = capsys.readouterr().out
        assert "deit-tiny" in out
        assert "energy_mJ" in out

    def test_bert(self, capsys):
        assert main(["run", "--model", "bert-base"]) == 0
        assert "bert-base" in capsys.readouterr().out


class TestCompareCommand:
    def test_contains_all_designs(self, capsys):
        assert main(["compare", "--model", "deit-t"]) == 0
        out = capsys.readouterr().out
        for design in ("LT-B", "MRR bank", "MZI array", "CPU", "GPU"):
            assert design in out


class TestReportCommand:
    def test_writes_file(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        assert main(["report", "--skip-accuracy", "--output", str(output)]) == 0
        text = output.read_text()
        assert "Table IV" in text
        assert "Fig. 13" in text


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_bad_bits_rejected(self):
        with pytest.raises(SystemExit):
            main(["area", "--bits", "5"])

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--model", "gpt-17"])


def bench(scenario, *extra, config=None):
    """``repro bench SCENARIO`` with an optional inline ``--config``."""
    argv = ["bench", scenario, *extra]
    if config is not None:
        argv += ["--config", config]
    return main(argv)


class TestServeBenchCommand:
    def test_tiny_vit_load(self, capsys):
        assert bench("serve-vit", "--requests", "6", config='{"max_batch_size": 4}') == 0
        out = capsys.readouterr().out
        assert "open-loop-poisson" in out
        assert "closed-loop" in out
        assert "batch occupancy" in out

    def test_tiny_bert_ragged_prompts(self, capsys):
        assert bench("serve-bert", "--requests", "5", config='{"max_batch_size": 8}') == 0
        assert "serve-bert: max_batch_size=8" in capsys.readouterr().out

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "gpt-17"])


class TestClusterBenchCommand:
    def test_vision_fleet(self, capsys):
        assert bench(
            "fleet-vit", "--requests", "8",
            config='{"replicas": 2, "engine": {"max_batch_size": 4}}',
        ) == 0
        out = capsys.readouterr().out
        assert "virtual-open-loop" in out
        assert "replica-0" in out and "replica-1" in out

    def test_decode_affinity_stats(self, capsys):
        assert bench(
            "fleet-decode", "--requests", "12",
            config='{"replicas": 3, "policy": "session_affinity"}',
        ) == 0
        out = capsys.readouterr().out
        assert "affinity: hit rate" in out
        assert "KV migrations" in out

    def test_decode_shared_cache_reports_the_tier(self, capsys):
        assert bench(
            "fleet-decode", "--requests", "12",
            config='{"replicas": 2, "shared_cache": true}',
        ) == 0
        out = capsys.readouterr().out
        assert "shared cache" in out
        # Decode steps carry no cache keys and no prefixes: an idle tier.
        assert (
            "tier: 0 memo hits / 0 misses, 0 prefix chains (0 shared bytes)"
            in out.splitlines()
        )

    def test_autoscale_emits_events(self, capsys):
        assert bench(
            "fleet-autoscale", "--requests", "24", "--rate", "20000",
            config='{"engine": {"max_batch_size": 2}}',
        ) == 0
        out = capsys.readouterr().out
        assert "replicas=3 (autoscaled)" in out
        assert "scale_up" in out

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            bench("fleet-vit", config='{"policy": "random"}')

    def test_bad_replicas_rejected(self):
        with pytest.raises(SystemExit):
            bench("fleet-vit", config='{"replicas": 0}')


class TestSchedulerFlag:
    def test_serve_bench_continuous(self, capsys):
        assert bench(
            "serve-vit", "--requests", "6",
            config='{"max_batch_size": 4, "scheduler": "continuous"}',
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler=continuous" in out
        assert "iteration occupancy" in out

    def test_serve_bench_request_is_default(self, capsys):
        assert bench("serve-vit", "--requests", "4", config='{"max_batch_size": 4}') == 0
        out = capsys.readouterr().out
        assert "scheduler=request" in out
        # Request mode runs the one iteration loop: every batch is one
        # iteration, so the two occupancy histograms agree.
        lines = dict(
            line.split(": ", 1) for line in out.splitlines() if "occupancy: " in line
        )
        assert lines["iteration occupancy"] == lines["batch occupancy"]

    def test_cluster_bench_continuous_decode(self, capsys):
        assert bench(
            "fleet-decode", "--requests", "12",
            config='{"replicas": 3, "policy": "session_affinity", '
            '"engine": {"scheduler": "continuous"}}',
        ) == 0
        out = capsys.readouterr().out
        assert "scheduler=continuous" in out
        assert "KV migrations" in out

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            bench("serve-vit", config='{"scheduler": "sorcery"}')
        with pytest.raises(SystemExit):
            bench("fleet-vit", config='{"engine": {"scheduler": "sorcery"}}')


#: A hot-path shape small enough for tier-1.
SMALL_HOTPATH = {"batch": 8, "m": 4, "d": 12, "n": 4, "repeats": 1}


def hotpath_config(**changes):
    return json.dumps({**SMALL_HOTPATH, **changes})


class TestHotpathBenchCommand:
    def test_stage_table_and_summary(self, capsys):
        assert bench("hotpath", config=hotpath_config()) == 0
        out = capsys.readouterr().out
        for stage in ("sample", "encode", "compute", "detect", "total"):
            assert stage in out
        assert "GFLOP/s" in out

    def test_writes_json_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "BENCH_hotpath.json"
        assert bench("hotpath", "--out", str(artifact), config=hotpath_config()) == 0
        report = json.loads(artifact.read_text())
        assert set(report) == {"scenario", "config", "title", "rows", "notes"}
        assert report["config"] == {**SMALL_HOTPATH, "seed": 0, "noise": "paper"}
        stages = {row["stage"]: row["best_us"] for row in report["rows"]}
        assert set(stages) == {"sample", "encode", "compute", "detect", "total"}
        assert all(seconds > 0.0 for seconds in stages.values())
        (note,) = report["notes"]
        assert float(note.split(": ")[1].split()[0]) > 0.0

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            bench("hotpath", config='{"batch": 0}')

    def test_noise_off_profiles_compute_and_detect_only(self, capsys):
        assert bench("hotpath", config=hotpath_config(noise="off")) == 0
        out = capsys.readouterr().out
        assert "noise=off" in out
        assert "compute" in out and "detect" in out
        assert "sample" not in out and "encode" not in out

    def test_trace_flag_writes_spans(self, tmp_path, capsys):
        trace = tmp_path / "hotpath.jsonl"
        assert bench("hotpath", "--trace", str(trace), config=hotpath_config()) == 0
        lines = trace.read_text().splitlines()
        # One traced matmul: its four stage spans, in order.
        assert [json.loads(line)["name"] for line in lines] == [
            "stage.sample", "stage.encode", "stage.compute", "stage.detect",
        ]
        assert "wrote 4 spans" in capsys.readouterr().out


class TestBenchCommand:
    def test_config_is_laid_over_the_scenario_default(self, capsys):
        assert bench("serve-vit", "--requests", "4", config='{"max_batch_size": 3}') == 0
        # max_wait_us keeps serve-vit's default, not EngineConfig's 1000.
        assert "max_batch_size=3, max_wait_us=2000" in capsys.readouterr().out

    def test_out_writes_rows_notes_and_the_applied_config(self, tmp_path, capsys):
        artifact = tmp_path / "fleet.json"
        assert bench(
            "fleet-vit", "--requests", "8", "--out", str(artifact),
            config='{"replicas": 2}',
        ) == 0
        report = json.loads(artifact.read_text())
        assert report["scenario"] == "fleet-vit"
        assert report["config"]["replicas"] == 2
        assert report["config"]["engine"]["max_wait_us"] == 500.0
        assert report["rows"][0]["completed"] == 8
        assert report["notes"][0].startswith("dispatches: ")

    def test_demo_trace_is_the_trace_verbs_spans(self, tmp_path, capsys):
        trace = tmp_path / "demo.jsonl"
        assert bench("demo", "--requests", "8", "--trace", str(trace)) == 0
        assert "demo: max_batch_size=4, scheduler=continuous" in capsys.readouterr().out
        assert main(["trace", "--requests", "8"]) == 0
        assert trace.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve-vit", "--requests", "0"], "bench serve-vit: --requests must be >= 1"),
            (["fleet-vit", "--rate", "0"], "bench fleet-vit: --rate must be > 0"),
            (["hotpath", "--rate", "5"], "bench hotpath: hotpath profiles one matmul"),
            (["demo", "--rate", "5"], "bench demo: demo steps its engine"),
        ],
    )
    def test_bad_load_is_a_one_line_exit(self, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", *argv])
        assert str(exit_info.value.code).startswith(message)


class TestTraceCommand:
    def test_stdout_jsonl_is_deterministic(self, capsys):
        assert main(["trace", "--seed", "1", "--requests", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", "--seed", "1", "--requests", "8"]) == 0
        second = capsys.readouterr().out
        assert first == second
        names = {json.loads(line)["name"] for line in first.splitlines()}
        assert "request" in names
        assert "stage.detect" in names

    def test_out_extension_selects_format(self, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        chrome = tmp_path / "trace.json"
        assert main(["trace", "--requests", "4", "--out", str(jsonl)]) == 0
        assert main(["trace", "--requests", "4", "--out", str(chrome)]) == 0
        assert json.loads(jsonl.read_text().splitlines()[0])["span_id"] == 0
        assert "traceEvents" in json.loads(chrome.read_text())
        assert "wrote" in capsys.readouterr().out

    def test_bad_requests_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "--requests", "0"])

    def test_serve_bench_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "serve.jsonl"
        assert bench("serve-vit", "--requests", "6", "--trace", str(trace)) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "request" in names

    def test_cluster_bench_trace_flag(self, tmp_path, capsys):
        trace = tmp_path / "cluster.jsonl"
        assert bench("fleet-vit", "--requests", "8", "--trace", str(trace)) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert "cluster" in names
        assert "cluster.request" in names


#: The ``--config`` cases are keyed by the retired verbs ``serve-bench`` and
#: ``cluster-bench``; these are the scenarios that took over their configs.
SCENARIO_OF = {"serve-bench": "serve-vit", "cluster-bench": "fleet-vit"}


class TestConfigFlag:
    def test_config_file_sets_engine_fields(self, tmp_path, capsys):
        path = tmp_path / "engine.json"
        path.write_text('{"max_batch_size": 3, "max_wait_us": 0.0}')
        assert bench("serve-vit", "--requests", "4", config=str(path)) == 0
        assert "max_batch_size=3, max_wait_us=0" in capsys.readouterr().out

    @pytest.mark.parametrize("verb", ["serve-bench", "cluster-bench"])
    @pytest.mark.parametrize(
        "config",
        [
            '{"bogus": 1}',
            '{"iteration_cost": {"bogus": 1}}',
            '{"service_model": {"bogus": 1}}',
            '{"engine": {"iteration_cost": {"base_s": "x"}}}',
            '{"max_batch_size": "x"}',
            '{not json',
            "missing-config.json",
        ],
    )
    def test_bad_config_is_a_one_line_exit(self, verb, config, capsys):
        scenario = SCENARIO_OF[verb]
        with pytest.raises(SystemExit) as exit_info:
            bench(scenario, "--requests", "4", config=config)
        message = str(exit_info.value.code)
        assert message.startswith(f"bench {scenario}: bad --config: ")
        assert "\n" not in message

    @pytest.mark.parametrize(
        "verb, config, expected",
        [
            ("serve-bench", '{"max_batch_size": "x"}', "max_batch_size must be an int"),
            ("serve-bench", '{"max_batch_size": 2.5}', "max_batch_size must be an int"),
            ("cluster-bench", '{"replicas": 1.5}', "replicas must be an int"),
            ("cluster-bench", '{"shared_cache": "yes"}', "shared_cache must be a bool"),
            ("cluster-bench", '{"engine": {"queue_depth": true}}', "queue_depth must be an int"),
        ],
    )
    def test_wrong_scalar_type_names_the_field(self, verb, config, expected):
        scenario = SCENARIO_OF[verb]
        with pytest.raises(SystemExit) as exit_info:
            bench(scenario, "--requests", "4", config=config)
        message = str(exit_info.value.code)
        assert message.startswith(f"bench {scenario}: bad --config: {expected}, got ")

    @pytest.mark.parametrize(
        "config, expected",
        [
            ('{"batch": 2.5}', "batch must be an int, got float 2.5"),
            ('{"noise": "loud"}', "noise must be 'paper' or 'off', got 'loud'"),
            ('{"bogus": 1}', "unknown HotpathConfig fields ['bogus']"),
        ],
    )
    def test_hotpath_config_errors_share_the_format(self, config, expected):
        with pytest.raises(SystemExit) as exit_info:
            bench("hotpath", config=config)
        assert str(exit_info.value.code).startswith(
            f"bench hotpath: bad --config: {expected}"
        )


class TestTraceSamplingFlags:
    def run_trace(self, capsys, *extra):
        assert main(["trace", "--seed", "1", "--requests", "8", *extra]) == 0
        return capsys.readouterr().out

    def test_sampled_stdout_is_deterministic_subset(self, capsys):
        full = self.run_trace(capsys)
        sampled = self.run_trace(capsys, "--sample", "2")
        again = self.run_trace(capsys, "--sample", "2")
        assert sampled == again
        assert 0 < len(sampled.splitlines()) < len(full.splitlines())
        assert set(sampled.splitlines()) < set(full.splitlines())

    def test_sampled_out_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "sampled.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--sample", "2", "--out", str(out),
        ]) == 0
        assert "sampled spans" in capsys.readouterr().out
        stdout_lines = self.run_trace(capsys, "--sample", "2").splitlines()
        assert out.read_text().splitlines() == stdout_lines

    def test_sample_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--sample", "0"])
        with pytest.raises(SystemExit):
            main([
                "trace", "--sample", "2",
                "--out", str(tmp_path / "trace.json"),
            ])

    def test_stream_round_trips_the_batch_dump(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--stream", "--out", str(out),
        ]) == 0
        message = capsys.readouterr().out
        assert "streamed" in message and "peak" in message
        batch = self.run_trace(capsys)
        assert sorted(out.read_text().splitlines()) == sorted(
            batch.splitlines()
        )

    def test_stream_with_sampler_matches_batch_sampling(self, tmp_path, capsys):
        out = tmp_path / "stream.jsonl"
        assert main([
            "trace", "--seed", "1", "--requests", "8",
            "--stream", "--sample", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        sampled = self.run_trace(capsys, "--sample", "2")
        assert sorted(out.read_text().splitlines()) == sorted(
            sampled.splitlines()
        )

    def test_stream_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--stream"])  # no --out
        with pytest.raises(SystemExit):
            main([
                "trace", "--stream", "--out", str(tmp_path / "trace.json"),
            ])

    @pytest.mark.parametrize("flags", [["--sample", "2"], ["--stream"]])
    def test_a_bad_out_is_refused_before_the_workload_is_built(
        self, flags, tmp_path, monkeypatch
    ):
        from repro.workloads import scenarios

        def never(**kwargs):
            raise AssertionError("the demo workload was built")

        monkeypatch.setattr(scenarios, "TracedMatmulServable", never)
        out = tmp_path / "trace.json"
        with pytest.raises(SystemExit, match="writes JSONL; --out must end in .jsonl"):
            main(["trace", *flags, "--out", str(out)])
        assert not out.exists()
        with pytest.raises(AssertionError, match="was built"):
            main(["trace", *flags, "--out", str(tmp_path / "trace.jsonl")])


class TestTopCommand:
    def test_renders_frames_without_color(self, capsys):
        assert main([
            "top", "--no-color", "--replicas", "2",
            "--requests", "12", "--frames", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2" in out
        assert "frames rendered" in out
        assert "\x1b[" not in out

    def test_color_frames_home_the_cursor(self, capsys):
        assert main([
            "top", "--replicas", "2", "--requests", "8", "--frames", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "\x1b[H\x1b[2J" in out

    def test_fail_replica_prints_postmortem(self, capsys):
        assert main([
            "top", "--no-color", "--replicas", "2",
            "--requests", "12", "--frames", "2", "--fail-replica", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "postmortem: replica_failed" in out
        assert "spans" in out

    def test_unknown_replica_rejected(self):
        with pytest.raises(SystemExit):
            main([
                "top", "--no-color", "--replicas", "2",
                "--requests", "8", "--fail-replica", "9",
            ])

    def test_bad_args_rejected(self):
        with pytest.raises(SystemExit):
            main(["top", "--replicas", "0"])
        with pytest.raises(SystemExit):
            main(["top", "--requests", "0"])
        with pytest.raises(SystemExit):
            main(["top", "--rate", "0"])


class TestMetricsCommand:
    def test_prometheus_dump(self, capsys):
        assert main(["metrics", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert "_total" in out
        assert out.endswith("\n")

    def test_dump_is_deterministic(self, capsys):
        assert main(["metrics", "--requests", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["metrics", "--requests", "8"]) == 0
        assert capsys.readouterr().out == first

    def test_one_shot_http_self_scrape(self, capsys):
        assert main([
            "metrics", "--requests", "6", "--port", "0", "--self-scrape",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving one scrape at http://127.0.0.1:" in out
        assert "served 1 scrape" in out

    def test_bad_requests_rejected(self):
        with pytest.raises(SystemExit):
            main(["metrics", "--requests", "0"])


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """argv of every distinct ``repro`` command in the README's shell
    blocks: each line of a ``bash`` block, each ``$`` prompt of a
    ``console`` block."""
    commands, lang = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            lang = line[3:].strip() if lang is None else None
            continue
        if lang == "console" and line.startswith("$ "):
            line = line[2:]
        elif lang != "bash":
            continue
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["repro"]:
            argv = argv[1:argv.index("|")] if "|" in argv else argv[1:]
            if argv not in commands:
                commands.append(argv)
    return commands


class TestReadmeCommands:
    def test_the_readme_shows_commands(self):
        verbs = {argv[0] for argv in readme_commands()}
        assert {"bench", "trace", "top", "metrics", "verify"} <= verbs

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        build_parser().parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [argv for argv in readme_commands() if argv[0] == "bench"],
        ids=" ".join,
    )
    def test_bench_runs(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(f"{argv[1]}: ")
