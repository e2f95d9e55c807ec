"""Tests for the command-line interface."""

import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.nimbus import NimbusCluster


@pytest.fixture
def built_clusters(monkeypatch):
    """Every NimbusCluster the CLI builds during the test, in order."""
    built = []

    def build(*args, **kwargs):
        built.append(NimbusCluster(*args, **kwargs))
        return built[-1]

    monkeypatch.setitem(cli.SYSTEMS, "nimbus", build)
    return built


def test_parser_has_all_workloads():
    parser = build_parser()
    for workload in ("lr", "kmeans", "water", "regression"):
        args = parser.parse_args([workload, "--workers", "2"])
        assert args.workers == 2
        assert callable(args.fn)


def test_lr_runs_end_to_end(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4"]) == 0
    out = capsys.readouterr().out
    assert "logistic regression" in out
    assert "steady-state iteration time" in out
    assert "auto_validations" in out


def test_lr_spark_system(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4", "--system", "spark"]) == 0
    out = capsys.readouterr().out
    assert "system=spark" in out
    assert "template_instantiations" not in out  # Spark never instantiates


def test_lr_without_templates(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--data-gb", "4", "--no-templates"]) == 0
    out = capsys.readouterr().out
    assert "template_instantiations" not in out


def test_kmeans_real_compute(capsys):
    assert main(["kmeans", "--workers", "2", "--iterations", "5",
                 "--data-gb", "2", "--real"]) == 0
    assert "k-means" in capsys.readouterr().out


def test_water_prints_frames(capsys):
    assert main(["water", "--workers", "4", "--scale", "0.01",
                 "--frame-duration", "0.003"]) == 0
    out = capsys.readouterr().out
    assert "frame 0:" in out
    assert "variables" in out


def test_regression_reports_error(capsys):
    assert main(["regression", "--workers", "3"]) == 0
    assert "nested regression" in capsys.readouterr().out


def test_rotation_exercises_patch_cache(capsys):
    assert main(["rotation", "--workers", "4", "--iterations", "10"]) == 0
    out = capsys.readouterr().out
    assert "patch rotation" in out
    assert "patch_cache_hits" in out


def test_rotation_cache_cap_zero_forces_recompute(capsys):
    assert main(["rotation", "--workers", "4", "--iterations", "10",
                 "--patch-cache-cap", "0"]) == 0
    out = capsys.readouterr().out
    assert "patch cache cap 0" in out
    assert "patch_cache_hits" not in out  # every round recomputes


def test_rotation_requires_nimbus():
    with pytest.raises(SystemExit):
        main(["rotation", "--workers", "4", "--system", "spark"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_lr_decentralized_mode_runs(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "8",
                 "--mode", "decentralized"]) == 0
    out = capsys.readouterr().out
    assert "logistic regression" in out
    assert "steady-state iteration time" in out


def test_lr_sharded_mode_with_explicit_shards(capsys, built_clusters):
    assert main(["lr", "--workers", "8", "--iterations", "12",
                 "--mode", "sharded", "--shards", "3"]) == 0
    assert "steady-state iteration time" in capsys.readouterr().out
    (cluster,) = built_clusters
    assert cluster.mode == "sharded" and cluster.num_shards == 3
    assert cluster.metrics.count("self_schedule_instances") > 0


def test_lr_under_chaos_is_deterministic(capsys):
    argv = ["lr", "--workers", "8", "--iterations", "6",
            "--chaos-profile", "lossy", "--chaos-seed", "7"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "chaos.drops" in out and "protocol.retries" in out
    assert main(argv) == 0
    assert capsys.readouterr().out == out  # same seed => same run


def test_rebalance_recovers_from_straggler(capsys):
    assert main(["rebalance", "--workers", "8", "--iterations", "30"]) == 0
    out = capsys.readouterr().out
    assert "rebalancer ON" in out
    assert "converged                | True" in out


def test_trace_writes_loadable_json(tmp_path, capsys):
    out_path = tmp_path / "trace_fig07.json"
    assert main(["trace", "fig07", "--workers", "8", "--iterations", "12",
                 "--out", str(out_path)]) == 0
    assert str(out_path) in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["traceEvents"]
    assert doc["otherData"]["inter_worker_copies"] > 0


def test_decentralized_mode_requires_nimbus():
    with pytest.raises(SystemExit, match="nimbus"):
        main(["lr", "--workers", "4", "--system", "spark",
              "--mode", "decentralized"])


def test_serve_accepts_mode(capsys):
    assert main(["serve", "--workers", "4", "--jobs", "2",
                 "--iterations", "4", "--mode", "decentralized"]) == 0
    assert "job_arrival" in capsys.readouterr().out


def test_autoscale_subcommand_reports_reconciliation(capsys):
    assert main(["autoscale", "--workers", "8", "--iterations", "30",
                 "--step-iteration", "10"]) == 0
    out = capsys.readouterr().out
    assert "demand-step reconciliation" in out
    assert "time to stable" in out
    assert "zero loss" in out


def test_lr_accepts_autoscale_flag(capsys):
    assert main(["lr", "--workers", "4", "--iterations", "6",
                 "--autoscale"]) == 0
    assert "logistic regression" in capsys.readouterr().out


def test_autoscale_flag_requires_nimbus():
    with pytest.raises(SystemExit, match="nimbus"):
        main(["lr", "--workers", "4", "--system", "spark", "--autoscale"])


def test_profile_unknown_workload_is_a_described_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["profile", "--workload", "fig99_nope",
              "--workers", "2", "--iterations", "4"])
    message = str(excinfo.value)
    assert "fig99_nope" in message
    # the error names the valid choices instead of dumping a traceback
    assert "fig07_lr" in message and "fig08_kmeans" in message


@pytest.mark.parametrize("sort", ["cumulative", "tottime"])
def test_profile_sort_orders(sort, capsys):
    assert main(["profile", "--workload", "fig07_lr", "--workers", "2",
                 "--iterations", "4", "--sort", sort, "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "fig07_lr" in out
    # pstats prints the human name of the sort key it applied
    label = {"cumulative": "cumulative time", "tottime": "internal time"}
    assert f"Ordered by: {label[sort]}" in out


def test_profile_rejects_unknown_sort():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["profile", "--sort", "calls"])
