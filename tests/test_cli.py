"""End-to-end command-line behavior: exit codes, file formats, JSON
schema and seeded reproducibility.
"""
import json

import numpy as np
import pytest

from tailfit import estimation
from tailfit.cli import main

EVENTS = """actor,timestamp
alice,100
alice,160
alice,400
bob,7
bob,10
bob,300
"""


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIngest:
    def test_writes_durations_and_summary(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(EVENTS)
        out = tmp_path / "durations.txt"
        summary_path = tmp_path / "summary.json"
        code, _, err = run(
            ["ingest", "--events", str(events), "--output", str(out),
             "--summary", str(summary_path)],
            capsys,
        )
        assert code == 0 and err == ""
        values = [float(line) for line in out.read_text().split()]
        assert values == [3.0, 60.0, 240.0, 290.0]
        summary = json.loads(summary_path.read_text())
        assert summary["events_read"] == 6
        assert summary["durations_emitted"] == 4

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(["ingest", "--events", str(tmp_path / "nope.csv")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_binary_output_roundtrips(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(EVENTS)
        out = tmp_path / "durations.bin"
        code, _, _ = run(
            ["ingest", "--events", str(events), "--output", str(out), "--format", "bin"],
            capsys,
        )
        assert code == 0
        assert out.read_bytes()[:4] == b"TFD1"


class TestSimulate:
    def test_seeded_output_is_reproducible(self, tmp_path, capsys):
        args = ["simulate", "lognormal", "--mu", "2", "--sigma", "1",
                "-n", "500", "--seed", "9"]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert run(args + ["--output", str(a)], capsys)[0] == 0
        assert run(args + ["--output", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gibrat_csv(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code, _, _ = run(
            ["simulate", "gibrat", "--agents", "2", "--steps", "3",
             "--seed", "1", "--output", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "agent,step,size"
        assert len(lines) == 1 + 2 * 4

    def test_invalid_parameters_exit_one(self, capsys):
        code, _, err = run(
            ["simulate", "powerlaw", "--gamma", "0.5", "--seed", "1"], capsys
        )
        assert code == 1
        assert "error:" in err


class TestBin:
    def test_histogram_csv(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        sample.write_text("".join(f"{v}\n" for v in [1.0, 2.0, 3.0, 10.0, 50.0]))
        out = tmp_path / "h.csv"
        code, _, _ = run(
            ["bin", "--input", str(sample), "--log-bins", "2", "--output", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count,density"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 5

    def test_width_option(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        sample.write_text("".join(f"{v}\n" for v in [1.0, 2.0, 3.0, 4.0, 5.0]))
        code, out, _ = run(["bin", "--input", str(sample), "--width", "1"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 5  # header + 4 unit-width bins


class TestFit:
    def make_sample(self, tmp_path, capsys, kind="powerlaw", n=2000, seed=5):
        path = tmp_path / "sample.txt"
        args = ["simulate", kind, "-n", str(n), "--seed", str(seed),
                "--output", str(path)]
        if kind == "powerlaw":
            args += ["--gamma", "2.0", "--tau", "1.0"]
        else:
            args += ["--mu", "5", "--sigma", "1.5"]
        assert run(args, capsys)[0] == 0
        return path

    def test_schema_and_exit_code(self, tmp_path, capsys):
        sample = self.make_sample(tmp_path, capsys)
        out = tmp_path / "fit.json"
        code, _, _ = run(
            ["fit", "--input", str(sample), "--dist", "both", "--output", str(out)],
            capsys,
        )
        assert code == 0
        row = json.loads(out.read_text())
        assert set(row) == {"dist", "gamma", "p", "xmin", "mu", "sigma", "loglik_p", "LR", "n"}
        assert row["gamma"] is not None
        assert row["mu"] is not None
        assert row["LR"] is not None
        assert row["n"] == 2000

    def test_single_family(self, tmp_path, capsys):
        sample = self.make_sample(tmp_path, capsys, kind="lognormal")
        code, out, _ = run(
            ["fit", "--input", str(sample), "--dist", "lognormal"], capsys
        )
        assert code == 0
        row = json.loads(out)
        assert row["gamma"] is None and row["LR"] is None
        assert row["mu"] == pytest.approx(5.0, abs=0.2)

    def test_degenerate_sample_exit_two(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("2.0\n" * 100)
        code, _, err = run(["fit", "--input", str(path), "--dist", "powerlaw"], capsys)
        assert code == 2
        assert "degenerate" in err

    def test_quantize_reports_dropped(self, tmp_path, capsys):
        sample = self.make_sample(tmp_path, capsys, kind="lognormal")
        code, out, _ = run(
            ["fit", "--input", str(sample), "--dist", "lognormal", "--quantize", "100"],
            capsys,
        )
        assert code == 0
        row = json.loads(out)
        assert row["quantize_dropped"] > 0

    def test_bootstrap_p_value_deterministic(self, tmp_path, capsys):
        sample = self.make_sample(tmp_path, capsys, n=800)
        args = ["fit", "--input", str(sample), "--dist", "powerlaw",
                "--bootstrap", "100", "--seed", "3"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2
        assert json.loads(out1)["p"] is not None

    def test_threads_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimation, "_usable_cpus", lambda: 2)
        sample = self.make_sample(tmp_path, capsys, kind="lognormal", n=800)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"fit{threads}.json"
            code, _, err = run(
                ["--threads", threads, "fit", "--input", str(sample), "--dist", "both",
                 "--quantize", "10", "--bootstrap", "100", "--seed", "4",
                 "--output", str(out)],
                capsys,
            )
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        row = json.loads(outputs[0])
        assert row["p"] is not None and row["loglik_p"] is not None

    def test_fixed_cutoff_lr_matches_compare(self, tmp_path, capsys):
        # fit --xmin hands its own fits to the comparison; compare makes its own.
        sample = self.make_sample(tmp_path, capsys, kind="lognormal")
        code, fit_out, _ = run(
            ["fit", "--input", str(sample), "--dist", "both", "--xmin", "150"], capsys
        )
        assert code == 0
        code, cmp_out, _ = run(["compare", "--input", str(sample), "--xmin", "150"], capsys)
        assert code == 0
        assert json.loads(fit_out)["LR"] == json.loads(cmp_out)["lr"]


class TestThreadsOption:
    """Bad worker counts are rejected before any work starts: the input
    named here does not exist, and the error is not an I/O error."""

    def fit_args(self, tmp_path):
        return ["fit", "--input", str(tmp_path / "missing.txt"), "--bootstrap", "100"]

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5", ""])
    def test_bad_flag_is_invalid_input(self, value, tmp_path, capsys):
        code, _, err = run(["--threads", value, *self.fit_args(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: invalid-input:")

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_environment_is_invalid_input(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAILFIT_THREADS", value)
        code, _, err = run(self.fit_args(tmp_path), capsys)
        assert code == 1
        assert err.startswith("error: invalid-input:")

    def test_flag_overrides_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TAILFIT_THREADS", "abc")
        code, _, err = run(["--threads", "1", *self.fit_args(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: io:")


class TestCompare:
    def test_verdict_on_lognormal_data(self, tmp_path, capsys):
        sample = tmp_path / "s.txt"
        run(["simulate", "lognormal", "--mu", "8", "--sigma", "2",
             "-n", "20000", "--seed", "7", "--output", str(sample)], capsys)
        med = float(np.median(np.loadtxt(sample)))
        code, out, _ = run(
            ["compare", "--input", str(sample), "--xmin", str(med)], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["lr"] < 0
        assert obj["verdict"] == "lognormal"


class TestReport:
    def test_table_from_fit_json(self, tmp_path, capsys):
        sample = TestFit().make_sample(tmp_path, capsys)
        fit_json = tmp_path / "fit.json"
        run(["fit", "--input", str(sample), "--dist", "both",
             "--output", str(fit_json)], capsys)
        code, out, _ = run(["report", str(fit_json), "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("dist,gamma(pl),p(pl),xmin,mu,sigma,p(ln),LR,n,verdict")
        assert len(lines) == 2

    def test_markdown_format(self, tmp_path, capsys):
        sample = TestFit().make_sample(tmp_path, capsys)
        fit_json = tmp_path / "fit.json"
        run(["fit", "--input", str(sample), "--dist", "both",
             "--output", str(fit_json)], capsys)
        code, out, _ = run(["report", str(fit_json)], capsys)
        assert code == 0
        assert out.startswith("| dist")

    def test_schema_mismatch_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"foo": 1}')
        code, _, err = run(["report", str(bad)], capsys)
        assert code == 1
        assert "schema-mismatch" in err or "no-valid-inputs" in err

    def test_mixed_good_and_bad_inputs(self, tmp_path, capsys):
        sample = TestFit().make_sample(tmp_path, capsys)
        fit_json = tmp_path / "fit.json"
        run(["fit", "--input", str(sample), "--dist", "powerlaw",
             "--output", str(fit_json)], capsys)
        bad = tmp_path / "bad.json"
        bad.write_text('{"foo": 1}')
        code, out, err = run(["report", str(fit_json), str(bad)], capsys)
        assert code == 0
        assert "schema-mismatch" in err
