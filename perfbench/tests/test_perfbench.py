"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metrics  # noqa: E402
import spans  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import MINI, WORKLOADS, CheckFailed, check_fit_row  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quiet(*_):
    pass


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_mini_workload_untraced_and_traced_agree(name, tmp_path):
    workload = WORKLOADS[name].scaled(**MINI[name])
    plain = run_workload(workload, 3, 0, False, tmp_path, log=quiet)
    traced = run_workload(workload, 3, 0, True, tmp_path, log=quiet)

    assert plain["line"]["correct"], plain["passes"]
    # The first run in a fresh state directory adds a warm-up pass.
    assert [p["label"] for p in plain["passes"]] == ["warmup", "pass0", "pass1"]
    assert plain["line"]["failed"] == 0 and plain["line"]["attempted"] == 3
    assert set(plain["line"]["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in plain["line"]["metrics"].values())

    assert traced["line"]["correct"], traced["passes"]
    assert set(traced["line"]["metrics"]) == set(metrics.PER_LAYER)
    assert [p["traced"] for p in traced["passes"]] == [False, True]
    digests = [p["digests"] for p in plain["passes"] + traced["passes"]]
    assert all(d == digests[0] for d in digests)


def test_digest_change_fails_the_run(tmp_path):
    workload = WORKLOADS["readme_fit_hour"].scaled(**MINI["readme_fit_hour"])
    run_workload(workload, 4, 0, False, tmp_path, log=quiet)
    store = tmp_path / "digests.json"
    known = json.loads(store.read_text())
    (key,) = known
    known[key] = {"fit_json": "0" * 64}
    store.write_text(json.dumps(known))
    line = run_workload(workload, 4, 0, False, tmp_path, log=quiet)["line"]
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 2


@pytest.mark.parametrize("change, message", [
    ({"p": 1.5}, "outside"),
    ({"loglik_p": -0.1}, "outside"),
    ({"gamma": 1.0}, "gamma"),
    ({"sigma": 0.0}, "sigma"),
    ({"n": 99}, "expected"),
])
def test_fit_row_checks(change, message):
    row = {"p": 0.5, "loglik_p": None, "gamma": 2.0, "sigma": 1.0, "n": 100}
    check_fit_row(row, 100, "ok")
    with pytest.raises(CheckFailed, match=message):
        check_fit_row({**row, **change}, 100, "bad")


def test_metric_and_workload_names():
    bench = benchmark_json()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    names += list(metrics.END_TO_END) + list(metrics.PER_LAYER) + list(WORKLOADS)
    assert [n for n in names if not NAME.fullmatch(n)] == []


def test_benchmark_json_matches_metrics_and_workloads():
    bench = benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == (
        metrics.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        n: spec[:2] for n, spec in metrics.PER_LAYER.items()
    }
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_per_layer_metric_names_its_target():
    bench = benchmark_json()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for m in bench["per_layer"]:
        _, _, target, on = metrics.PER_LAYER[m["name"]]
        assert target in end_to_end, m["name"]
        assert on and set(on) <= workloads, m["name"]


def test_traced_functions_exist():
    modules = {n: importlib.import_module(f"tailfit.{n}") for n in ("ingestion", "binning", "estimation")}
    for mod_name, attr in [*spans.WRAPPED, spans.PARSE]:
        assert callable(getattr(modules[mod_name], attr, None)), f"{mod_name}.{attr}"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".state", "__pycache__"))
    cmd = [sys.executable, *benchmark_json()["command"][1:], "--workload", "readme_fit_hour",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
