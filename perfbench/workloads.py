"""The benchmark's workloads: seeded input generation, the processes of
one pass, and the checks on a pass's outputs.

Inputs are made with numpy alone, so they do not change when the
program's own samplers do. Each workload runs as a closed loop with one
client: one pass at a time, each pass one or two processes in sequence.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """A pass produced output that is missing or wrong."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def lognormal_sample(seed: int, n: int, mu: float, sigma: float) -> np.ndarray:
    return np.sort(np.exp(rng(seed).normal(mu, sigma, size=n)))


def n_after_quantize(values: np.ndarray, step: float) -> int:
    return int(np.count_nonzero(np.floor(values / step) * step > 0))


def check_fit_row(row: dict, expected_n: int, where: str) -> None:
    """p values in [0, 1], gamma > 1, sigma > 0, n as expected."""
    for key in ("p", "loglik_p"):
        if row.get(key) is not None and not 0.0 <= row[key] <= 1.0:
            raise CheckFailed(f"{where}: {key}={row[key]} outside [0, 1]")
    if row.get("gamma") is not None and not row["gamma"] > 1.0:
        raise CheckFailed(f"{where}: gamma={row['gamma']} <= 1")
    if row.get("sigma") is not None and not row["sigma"] > 0.0:
        raise CheckFailed(f"{where}: sigma={row['sigma']} <= 0")
    if row.get("n") != expected_n:
        raise CheckFailed(f"{where}: n={row.get('n')}, expected {expected_n}")


def read_json(path: Path, where: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{where}: unreadable output {path}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict

    def generate(self, inputs: Path, seed: int) -> dict:
        """Write the inputs; return what the checks expect of the outputs."""
        raise NotImplementedError

    def steps(self, inputs: Path, out: Path, seed: int, threads: int) -> list:
        """The ``tailfit`` command line of each process of one pass, in order."""
        raise NotImplementedError

    def check(self, out: Path, expected: dict) -> tuple[dict, dict]:
        """Raise CheckFailed on a wrong output; else return the output
        digests and the program's own counts."""
        raise NotImplementedError

    def scaled(self, **params) -> "Workload":
        return dataclasses.replace(self, params={**self.params, **params})


class ReadmeFitHour(Workload):
    def generate(self, inputs, seed):
        p = self.params
        values = lognormal_sample(seed, p["n"], p["mu"], p["sigma"])
        with open(inputs / "durations.txt", "w") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in values)
        return {"n": n_after_quantize(values, p["step"])}

    def steps(self, inputs, out, seed, threads):
        p = self.params
        return [[
            "--threads", str(threads), "fit", "--input", str(inputs / "durations.txt"),
            "--quantize", repr(p["step"]), "--dist", "both",
            "--bootstrap", str(p["bootstrap"]), "--seed", str(seed),
            "--output", str(out / "fit.json"),
        ]]

    def check(self, out, expected):
        row = read_json(out / "fit.json", self.name)
        check_fit_row(row, expected["n"], self.name)
        if row.get("p") is None or row.get("loglik_p") is None:
            raise CheckFailed(f"{self.name}: bootstrap p values missing")
        return {"fit_json": sha256_file(out / "fit.json")}, {}


class Ingest(Workload):
    def generate(self, inputs, seed):
        # Acceptance criterion 9's event log: per actor, cumulative
        # lognormal gaps printed with six decimals.
        p = self.params
        per_actor = p["events"] // p["actors"]
        r = rng(seed)
        with open(inputs / "events.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["actor", "timestamp"])
            for a in range(p["actors"]):
                ts = np.cumsum(np.exp(r.normal(p["gap_mu"], p["gap_sigma"], size=per_actor)))
                writer.writerows(zip([f"u{a}"] * per_actor, (f"{t:.6f}" for t in ts)))
        return {"events": per_actor * p["actors"], "actors": p["actors"]}

    def steps(self, inputs, out, seed, threads):
        return [
            [
                "--threads", str(threads), "ingest", "--events", str(inputs / "events.csv"),
                "--output", str(out / "durations.txt"), "--summary", str(out / "summary.json"),
            ],
            [
                "--threads", str(threads), "fit", "--input", str(out / "durations.txt"),
                "--dist", "both", "--xmin", repr(self.params["xmin"]),
                "--output", str(out / "fit.json"),
            ],
        ]

    def check(self, out, expected):
        summary = read_json(out / "summary.json", self.name)
        want = {
            "events_read": expected["events"],
            "events_dropped": 0,
            "actors": expected["actors"],
        }
        for key, value in want.items():
            if summary.get(key) != value:
                raise CheckFailed(f"{self.name}: summary {key}={summary.get(key)}, expected {value}")
        gaps = summary.get("durations_emitted", 0) + summary.get("zero_gaps_dropped", 0)
        if gaps != expected["events"] - expected["actors"]:
            raise CheckFailed(f"{self.name}: summary accounts for {gaps} gaps")
        row = read_json(out / "fit.json", self.name)
        check_fit_row(row, summary["durations_emitted"], self.name)
        digests = {
            "sample": sha256_file(out / "durations.txt"),
            "summary_json": sha256_file(out / "summary.json"),
            "fit_json": sha256_file(out / "fit.json"),
        }
        return digests, summary


WORKLOADS = {
    w.name: w
    for w in (
        ReadmeFitHour(
            "readme_fit_hour",
            "The README run and headline user path: fit --quantize 3600 --dist both "
            "--bootstrap 100 on a tie-heavy hour lattice; the cutoff scan, once per "
            "replicate, takes ~90%.",
            {"n": 41184, "mu": 10.45, "sigma": 2.75, "step": 3600.0, "bootstrap": 100},
        ),
        Ingest(
            "ingest_1e6",
            "Criterion 9's event log at 1/10 size (10^6 events, 200 actors) through "
            "ingest --summary and a fixed-cutoff fit; CSV parse, gaps and text I/O do "
            "almost all the work.",
            {"events": 10**6, "actors": 200, "gap_mu": 4.0, "gap_sigma": 1.0,
             "xmin": math.exp(5.0)},
        ),
    )
}

# Miniature sizes for the self-tests; replicate counts stay at the
# program's minimum of 100.
MINI = {
    "readme_fit_hour": {"n": 2000},
    "ingest_1e6": {"events": 4000, "actors": 20},
}
