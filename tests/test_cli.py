"""The ``heavyagg`` command: ``bench`` writes the benchmark's result lines to a file."""

import json

import pytest

from heavyagg import cli


def test_bench_writes_each_runs_last_line(tmp_path, monkeypatch, capsys):
    # one workload for a fraction of a second: the untraced and the traced
    # run each leave their result object in .benchmarks/BENCH_<tag>.json
    # under the current directory
    monkeypatch.chdir(tmp_path)
    assert cli.main(["bench", "--tag", "probe", "--seconds", "0.05", "--workload", "shot-grid"]) == 0
    path = tmp_path / ".benchmarks" / "BENCH_probe.json"
    assert capsys.readouterr().out.strip() == str(path.relative_to(tmp_path))
    record = json.loads(path.read_text())
    assert (record["tag"], record["seed"], record["seconds"]) == ("probe", 5, 0.05)
    runs = record["workloads"]
    assert list(runs) == ["shot-grid"]
    e2e, layers = runs["shot-grid"]["end_to_end"], runs["shot-grid"]["per_layer"]
    assert e2e["correct"] and layers["correct"]
    assert {"run_s", "peak_rss_mb"} <= set(e2e["metrics"]) and "run_s" not in layers["metrics"]
    assert layers["metrics"]["shot_noise.pulses"]["value"] > 0
    for bad in (["--tag", "a/b"], ["--tag", "t", "--workload", "no-such-load"], ["--tag", "t", "--seconds", "0"]):
        with pytest.raises(SystemExit):
            cli.main(["bench", *bad])
