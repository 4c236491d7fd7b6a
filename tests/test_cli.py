"""End-to-end command-line behavior: exit codes, file formats, JSON
schema and seeded reproducibility.
"""
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tailfit
from tailfit import compare_families, estimation, fit_powerlaw_tail, ingestion, pool, quantize
from tailfit.cli import main
from tailfit.ingestion import read_durations_text

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

    def test_threads_do_not_change_output(self, tmp_path, capsys, monkeypatch):
        # Every duration text runs in worker ranges: the pool threshold is
        # one byte. The event CSV is parsed in the calling process.
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(ingestion, "POOL_MIN_BYTES", 1)
        monkeypatch.setattr(ingestion, "CHUNK_ROWS", 64)
        rng = np.random.default_rng(5)
        events = tmp_path / "events.csv"
        actors, stamps = rng.integers(0, 30, 3000), rng.random(3000) * 1e4
        rows = "".join(f"u{a},{t:.3f}\n" for a, t in zip(actors, stamps))
        events.write_text("actor,timestamp\n" + rows)
        outputs = []
        for threads in ("1", "2", "3"):
            paths = [tmp_path / f"{name}{threads}" for name in ("durations", "summary", "fit")]
            code, _, err = run(
                ["--threads", threads, "ingest", "--events", str(events),
                 "--output", str(paths[0]), "--summary", str(paths[1])],
                capsys,
            )
            assert code == 0, err
            code, _, err = run(
                ["--threads", threads, "fit", "--input", str(paths[0]), "--dist", "both",
                 "--xmin", "100", "--output", str(paths[2])],
                capsys,
            )
            assert code == 0, err
            outputs.append([path.read_bytes() for path in paths])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert json.loads(outputs[0][1])["events_read"] == 3000

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(["ingest", "--events", str(tmp_path / "nope.csv")], capsys)
        assert code == 1
        assert err.startswith("error:")

    def test_oversized_field_is_invalid_input(self, tmp_path, capsys):
        # csv.reader raises csv.Error on a field over csv.field_size_limit().
        events = tmp_path / "events.csv"
        events.write_text("actor,timestamp\n" + "a" * 140000 + ",1\n")
        code, _, err = run(["ingest", "--events", str(events)], capsys)
        assert code == 1
        assert err.startswith("error: invalid-input: field larger than field limit")

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

    @pytest.mark.parametrize(
        "option, value, named",
        [("--xi-std", "-1", "xi_std"), ("--xi-std", "nan", "xi_std"),
         ("--xi-mean", "inf", "xi_mean")],
    )
    def test_invalid_gibrat_factors_are_named(self, capsys, option, value, named):
        # --xi-std -1 once exited with numpy's own "scale < 0".
        code, out, err = run(["simulate", "gibrat", option, value, "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid-input: {named} ")

    @pytest.mark.parametrize(
        "args, named",
        [
            (["powerlaw", "--gamma", "1.0000001"], "gamma=1.0000001"),
            (["lognormal", "--sigma", "1000"], "sigma=1000.0"),
            (["expexp", "--gamma", "1.0000001"], "gamma=1.0000001"),
            (["gibrat", "--xi-std", "1000", "--steps", "5", "--agents", "2"], "xi_std=1000.0"),
        ],
    )
    def test_draws_past_float64_name_the_parameters(self, tmp_path, capsys, args, named):
        # These once printed a numpy RuntimeWarning and then "non-finite
        # durations"; gibrat wrote inf sizes and exited 0.
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["simulate", *args, "--seed", "1", "--output", str(out)], capsys)
        assert code == 1
        assert err.startswith("error: invalid-input: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()


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

    def run_bin(self, tmp_path, capsys, values, *options):
        sample = tmp_path / "s.txt"
        sample.write_text("".join(f"{v!r}\n" for v in values))
        # A numpy warning on the way fails the test.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run(["bin", "--input", str(sample), *options], capsys)

    def run_log_bins(self, tmp_path, capsys, values):
        return self.run_bin(tmp_path, capsys, values, "--log-bins", "5")

    def test_log_bins_of_subnormal_values_is_invalid_input(self, tmp_path, capsys):
        # The bins are so narrow that counts / (n * width) overflows.
        code, out, err = self.run_log_bins(tmp_path, capsys, [1e-310, 2e-310, 5e-310, 2e-309])
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid-input: values in [1e-310, 2e-309] reach the float64 limits: "
            "their log bins would have an infinite edge or density, or no width\n"
        )

    def test_log_bins_up_to_float_max_is_invalid_input(self, tmp_path, capsys):
        # The last edge, 10**(1541 / 5), is past the largest float64.
        values = np.geomspace(1e300, 1.7e308, 50).tolist()
        code, out, err = self.run_log_bins(tmp_path, capsys, values)
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-input: values in [1e+300, 1.7e+308] reach")

    def test_bins_up_to_float_max_is_invalid_input(self, tmp_path, capsys):
        # n times a width, 50 * 3.4e307, overflows: every density read 0.0.
        values = np.geomspace(1e300, 1.7e308, 50).tolist()
        code, out, err = self.run_bin(tmp_path, capsys, values, "--bins", "5")
        assert (code, out) == (1, "")
        assert err == (
            "error: invalid-input: values in [1e+300, 1.7e+308] reach the float64 limits: "
            "in 5 linear bins, n times a width, or a density, would be infinite\n"
        )

    def test_bins_of_subnormal_values_is_invalid_input(self, tmp_path, capsys):
        # The densities, 3 / (4 * 6.3e-310), overflow to inf.
        values = [1e-310, 2e-310, 5e-310, 2e-309]
        code, out, err = self.run_bin(tmp_path, capsys, values, "--bins", "3")
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid-input: values in [1e-310, 2e-309] reach the")

    @pytest.mark.parametrize(
        "values, options, message",
        [
            # numpy could not allocate (50 - 1) / 1e-300 bins.
            ([1.0, 2.0, 50.0], ["--width", "1e-300"],
             "--width 1e-300: cannot allocate 4.9e+301 linear bins over [1.0, 50.0]"),
            ([1.0, 2.0, 50.0], ["--bins", str(10**15)],
             "cannot allocate 1e+15 linear bins over [1.0, 50.0]"),
            # 1e10 / 1e-300 is inf, which int() could not round (an
            # OverflowError traceback).
            ([1.0, 1e10], ["--width", "1e-300"],
             "--width 1e-300: [1.0, 10000000000.0] holds more bins than a float64 can count"),
            ([1.0, 2.0], ["--width", "0"], "--width 0.0: must be positive"),
        ],
    )
    def test_bins_past_memory_or_float64_are_invalid_input(
        self, tmp_path, capsys, values, options, message
    ):
        code, out, err = self.run_bin(tmp_path, capsys, values, *options)
        assert (code, out, err) == (1, "", f"error: invalid-input: {message}\n")

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
        assert set(row) == {
            "dist", "gamma", "p", "xmin", "mu", "sigma", "loglik_p", "LR", "LR_p", "n"
        }
        assert row["gamma"] is not None
        assert row["mu"] is not None
        assert row["LR"] is not None
        assert 0.0 <= row["LR_p"] <= 1.0
        assert row["n"] == 2000

    def test_single_family(self, tmp_path, capsys):
        sample = self.make_sample(tmp_path, capsys, kind="lognormal")
        code, out, _ = run(
            ["fit", "--input", str(sample), "--dist", "lognormal"], capsys
        )
        assert code == 0
        row = json.loads(out)
        assert row["gamma"] is None and row["LR"] is None and row["LR_p"] is None
        assert row["mu"] == pytest.approx(5.0, abs=0.2)

    def test_degenerate_sample_exit_two(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("2.0\n" * 100)
        code, _, err = run(["fit", "--input", str(path), "--dist", "powerlaw"], capsys)
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize(
        "command, option, value, scale, message",
        [
            ("fit", "--rescale", "1e300", 5e8, "scale factor 1e+300 takes durations in"),
            ("bin", "--rescale", "1e300", 5e8, "scale factor 1e+300 takes durations in"),
            ("fit", "--quantize", "1e-310", 5e8, "quantization step 1e-310 divides durations in"),
            ("fit", "--rescale", "1e-300", 1e-304, "scale factor 1e-300 takes durations in"),
        ],
        ids=["fit-rescale-up", "bin-rescale-up", "fit-quantize", "fit-rescale-down"],
    )
    def test_step_or_factor_past_float64_is_invalid_input(
        self, tmp_path, capsys, command, option, value, scale, message
    ):
        # These once printed numpy's overflow RuntimeWarning and then "non-finite
        # durations", or "durations must be strictly positive", naming no option.
        values = scale * np.exp(np.random.default_rng(3).normal(0.0, 0.3, 500))
        path = tmp_path / "sample.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        options = ["--bins", "5"] if command == "bin" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run([command, "--input", str(path), option, value, *options], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: invalid-input: {message} [") and err.count("\n") == 1
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("dist", ["both", "powerlaw", "lognormal"])
    def test_bootstrap_of_a_tail_past_float_max_is_degenerate(self, tmp_path, capsys, dist):
        # Every replicate of either fit draws past the largest float64; a
        # replicate's inf once ended the run as "non-finite durations".
        path = tmp_path / "huge.txt"
        path.write_text("".join(f"{v!r}\n" for v in np.geomspace(1e300, 1.7e308, 300).tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                ["fit", "--input", str(path), "--dist", dist, "--bootstrap", "100"], capsys
            )
        family = "lognormal" if dist == "lognormal" else "powerlaw"
        assert (code, out) == (2, "")
        assert err == (
            f"error: degenerate-data: the fitted {family} tail passes the largest float64 in "
            "about 100 of 100 bootstrap replicates; it is too heavy to bootstrap\n"
        )

    @pytest.mark.parametrize(
        "command, option, value, name",
        [
            ("fit", "--xmin", "0", "xmin"),
            ("fit", "--xmin", "-5", "xmin"),
            ("fit", "--xmin", "nan", "xmin"),
            ("fit", "--xmin", "inf", "xmin"),
            ("compare", "--xmin", "nan", "xmin"),
            # Vuong p is a probability: 2 once gave a verdict at p 0.91,
            # and nan or -1 never one.
            ("compare", "--threshold", "2", "threshold"),
            ("compare", "--threshold", "1", "threshold"),
            ("compare", "--threshold", "0", "threshold"),
            ("compare", "--threshold", "-1", "threshold"),
            ("compare", "--threshold", "nan", "threshold"),
            ("fit", "--quantize", "inf", "quantization step"),
            ("fit", "--quantize", "nan", "quantization step"),
            ("fit", "--rescale", "nan", "scale factor"),
            ("fit", "--rescale", "inf", "scale factor"),
            # Finite and above every value: a valid cutoff that leaves no tail.
            ("fit", "--xmin", "1e308", None),
            ("compare", "--xmin", "1e308", None),
        ],
    )
    def test_invalid_cutoff_step_or_factor(self, tmp_path, capsys, command, option, value, name):
        sample = self.make_sample(tmp_path, capsys, n=500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run([command, "--input", str(sample), option, value], capsys)
        if name is None:
            err = "degenerate-data: no values at or above the requested cutoff"
            assert got == (2, "", f"error: {err}\n")
        else:
            bounds = (
                "lie strictly between 0 and 1" if name == "threshold" else "be finite and positive"
            )
            err = f"invalid-input: {name} must {bounds}, got {float(value)!r}"
            assert got == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_cutoff_that_leaves_one_value(self, tmp_path, capsys, command):
        # The power law fits one value; the lognormal, which needs two, says so.
        sample = self.make_sample(tmp_path, capsys, n=500)
        with open(sample) as fh:
            values = read_durations_text(fh).values
        xmin = repr(float(values[-2] + values[-1]) / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run([command, "--input", str(sample), "--xmin", xmin], capsys)
        assert got == (2, "", "error: degenerate-data: need at least two tail values\n")

    @pytest.mark.parametrize(
        "data",
        [
            b"TFD1",
            b"TFD1\x02\x00\x00",  # a count cut short
            b"TFD1" + struct.pack("<Q", 2**63),
            # A count one past the values the file holds.
            b"TFD1" + struct.pack("<Q", 3) + struct.pack("<2d", 1.0, 2.0),
        ],
    )
    def test_malformed_binary_header_is_truncated(self, tmp_path, capsys, data):
        path = tmp_path / "x.bin"
        path.write_bytes(data)
        got = run(["fit", "--input", str(path)], capsys)
        assert got == (1, "", "error: invalid-input: truncated TFD1 duration file\n")

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
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
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
        # fit --dist both --xmin and compare --xmin make one comparison each,
        # both by compare_families at that cutoff.
        sample = self.make_sample(tmp_path, capsys, kind="lognormal")
        code, fit_out, _ = run(
            ["fit", "--input", str(sample), "--dist", "both", "--xmin", "150"], capsys
        )
        assert code == 0
        code, cmp_out, _ = run(["compare", "--input", str(sample), "--xmin", "150"], capsys)
        assert code == 0
        assert json.loads(fit_out)["LR"] == json.loads(cmp_out)["lr"]

    @pytest.mark.parametrize(
        "options, kwargs",
        [
            (["--dist", "powerlaw"], {"dist": "powerlaw"}),
            (["--dist", "powerlaw", "--xmin", "1e5"], {"dist": "powerlaw", "xmin": 1e5}),
            (["--dist", "lognormal"], {"dist": "lognormal"}),
            (["--dist", "lognormal", "--xmin", "1e5"], {"dist": "lognormal", "xmin": 1e5}),
            (["--dist", "both"], {"dist": "both"}),
            (["--dist", "both", "--xmin", "1e5"], {"dist": "both", "xmin": 1e5}),
            (["--label", "emails"], {"label": "emails"}),
            (["--quantize", "3600"], {"quantize_step": 3600.0}),
            (
                ["--quantize", "3600", "--bootstrap", "100", "--seed", "2"],
                {"quantize_step": 3600.0, "bootstrap": 100, "seed": 2, "workers": 2},
            ),
        ],
    )
    def test_writes_the_fit_sample_row(self, tmp_path, capsys, monkeypatch, options, kwargs):
        # fit writes estimation.fit_sample's row for the same arguments.
        monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
        path = tmp_path / "sample.txt"
        assert main(["simulate", "lognormal", "--mu", "10.45", "--sigma", "2.75", "-n", "2000",
                     "--seed", "1", "--output", str(path)]) == 0
        threads = str(kwargs.get("workers", 1))
        out = tmp_path / "fit.json"
        code, _, err = run(
            ["--threads", threads, "fit", "--input", str(path), *options, "--output", str(out)],
            capsys,
        )
        assert code == 0, err
        with open(path) as fh:
            sample = read_durations_text(fh)
        row = estimation.fit_sample(sample, **kwargs)
        assert out.read_text() == json.dumps(row, indent=2, sort_keys=True) + "\n"


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



def powerlaw_of_exponent(gamma):
    """A seeded power-law sample with the given exponent from 1."""
    return np.exp(np.random.default_rng(1).exponential(1.0 / (gamma - 1.0), 2000))


class TestTruncatedFitExtremes:
    """fit --xmin and compare --xmin, whose lognormal is the truncated fit,
    on tails at its edges: each exits 0 with finite numbers, or 2 naming
    degenerate data, with no numpy warning."""

    CASES = {
        # The fitted body sits so far below the cutoff that 1 - Phi(a) is 0.
        "cutoff-far-above-body": (lambda: powerlaw_of_exponent(51.0), 1.0),
        "two-values": (lambda: [1.0] * 50 + [2.0] * 50, 1.0),
        "ties-but-one": (lambda: [1.0] * 99 + [2.0], 1.0),
        "sigma-bound": (lambda: powerlaw_of_exponent(2.0), 1.0),
        "near-float-max": (lambda: np.geomspace(1e307, 1.7e308, 200), 1e307),
        # A log spread below the smallest sigma fitted.
        "ulp-spread": (lambda: [1.0] * 50 + [np.nextafter(1.0, 2.0)] * 50, 1.0),
    }

    def run_case(self, tmp_path, capsys, name, command):
        values, xmin = self.CASES[name]
        path = tmp_path / "tail.txt"
        path.write_text("".join(f"{float(v)!r}\n" for v in values()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run([command, "--input", str(path), "--xmin", repr(xmin)], capsys)

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_exit_and_output(self, tmp_path, capsys, name, command):
        code, out, err = self.run_case(tmp_path, capsys, name, command)
        if name == "ulp-spread":
            assert (code, out) == (2, "")
            assert err.startswith("error: degenerate-data: the tail's log spread ")
            return
        assert (code, err) == (0, "")
        numbers = [v for v in json.loads(out).values() if isinstance(v, float)]
        assert numbers and all(np.isfinite(numbers))

    def test_cases_reach_the_edges(self, tmp_path, capsys):
        from scipy.special import ndtr

        rows = {}
        for name in ("cutoff-far-above-body", "sigma-bound"):
            code, out, _ = self.run_case(tmp_path, capsys, name, "fit")
            assert code == 0
            rows[name] = json.loads(out)
        far = rows["cutoff-far-above-body"]
        assert ndtr(-(np.log(far["xmin"]) - far["mu"]) / far["sigma"]) == 0.0
        assert rows["sigma-bound"]["sigma"] == estimation.SIGMA_MAX


class TestStartup:
    """No subcommand imports scipy: the normal kernels are tailfit.normal's
    and the truncated fit is solved with numpy; only the binned fits, which
    no subcommand runs, import scipy.optimize. Nor does any subcommand load
    numpy.ma, which nothing of tailfit needs. numpy.random is loaded only
    by the subcommands that draw (simulate, and fit's bootstrap), and the
    bootstrap loads it before it forks its workers: one pool for the
    replicates of every family fit fitted."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("startup")
        (path / "events.csv").write_text(EVENTS)
        assert main(["simulate", "lognormal", "--mu", "5", "--sigma", "1.5", "-n", "2000",
                     "--seed", "3", "--output", str(path / "sample.txt")]) == 0
        assert main(["simulate", "lognormal", "--mu", "10.45", "--sigma", "2.75", "-n", "2000",
                     "--seed", "3", "--output", str(path / "readme.txt")]) == 0
        assert main(["fit", "--input", str(path / "sample.txt"),
                     "--output", str(path / "fit.json")]) == 0
        return path

    @pytest.mark.parametrize(
        "args, draws",
        [
            (None, False),
            (["ingest", "--events", "events.csv", "--output", "d.txt", "--summary", "s.json"],
             False),
            (["simulate", "powerlaw", "--seed", "1", "--output", "p.txt"], True),
            (["bin", "--input", "sample.txt", "--log-bins", "5", "--output", "h.csv"], False),
            (["fit", "--input", "sample.txt", "--output", "f.json"], False),
            (["fit", "--input", "sample.txt", "--xmin", "150", "--output", "fx.json"], False),
            (["--threads", "2", "fit", "--input", "readme.txt", "--quantize", "3600",
              "--bootstrap", "100", "--output", "fb.json"], True),
            (["compare", "--input", "sample.txt", "--output", "c.json"], False),
            (["report", "fit.json", "--output", "r.md"], False),
        ],
        ids=["import", "ingest", "simulate", "bin", "fit", "fit-xmin", "fit-bootstrap",
             "compare", "report"],
    )
    def test_leaves_scipy_optimize_out(self, workdir, args, draws):
        # A spy on the bootstrap's run_ranges records whether numpy.random
        # is loaded each time it is called, before any worker forks.
        code = (
            "import sys\nimport tailfit\nimport tailfit.cli\n"
            "print('numpy.random' in sys.modules)\n"
            "from tailfit import estimation\n"
            "loaded, run_ranges = [], estimation.run_ranges\n"
            "def spy(*args):\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "    return run_ranges(*args)\n"
            "estimation.run_ranges = spy\n"
        )
        if args is not None:
            code += f"assert tailfit.cli.main({args!r}) == 0\n"
        code += (
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
            " 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules, loaded)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tailfit.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=workdir, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        # fit runs the power-law and the lognormal replicates in one bootstrap.
        loaded = [True] if "--bootstrap" in (args or []) else []
        assert done.stdout == f"False\n[] False {draws} {loaded}\n"


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

    def test_verdict_is_the_comparison_verdict(self, tmp_path, capsys):
        # The README sample on the hour lattice: LR is negative, but its
        # Vuong p is about 0.37, so the comparison is undecided, and the
        # report must say so rather than read the sign of LR alone.
        sample = tmp_path / "durations.txt"
        run(["simulate", "lognormal", "--mu", "10.45", "--sigma", "2.75", "-n", "41184",
             "--seed", "1", "--output", str(sample)], capsys)
        fit_json = tmp_path / "fit.json"
        code, _, err = run(["fit", "--input", str(sample), "--quantize", "3600",
                            "--dist", "both", "--output", str(fit_json)], capsys)
        assert code == 0, err
        code, out, _ = run(["report", str(fit_json), "--format", "csv"], capsys)
        assert code == 0
        cell = out.strip().split("\n")[1].split(",")[-1]
        with open(sample) as fh:
            q, _ = quantize(read_durations_text(fh), 3600.0)
        comparison = compare_families(q, fit_powerlaw_tail(q).xmin)
        assert comparison.lr < 0
        assert comparison.verdict == "undecided"
        assert cell == comparison.verdict

    def test_row_without_lr_p_is_undecided(self, tmp_path, capsys):
        row = tmp_path / "old.json"
        row.write_text(json.dumps({"dist": "old", "LR": -50.0, "n": 100}))
        code, out, _ = run(["report", str(row), "--format", "csv"], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[-1] == "undecided"

    def test_rows_with_non_numeric_lr_are_schema_mismatch(self, tmp_path, capsys):
        # Either row once ended report with a TypeError traceback.
        rows = [{"dist": "x", "n": 5, "LR": 1.0, "LR_p": "0.01"},
                {"dist": "x", "n": 5, "LR": "a", "LR_p": 0.01},
                {"dist": "x", "n": 5, "LR": True, "LR_p": 0.01}]
        paths = []
        for k, row in enumerate(rows):
            paths.append(tmp_path / f"bad{k}.json")
            paths[-1].write_text(json.dumps(row))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"dist": "x", "n": 5, "LR": -3.0, "LR_p": 0.01}))
        code, out, err = run(["report", *map(str, paths), str(good), "--format", "csv"], capsys)
        assert code == 0
        assert err == "".join(f"error: schema-mismatch: {path}\n" for path in paths)
        assert out.strip().split("\n")[1].split(",")[-1] == "lognormal"
        code, out, err = run(["report", *map(str, paths)], capsys)
        assert (code, out) == (1, "") and err.endswith("error: no-valid-inputs\n")

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
