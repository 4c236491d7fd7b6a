"""tailfit benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/tailfit``. The driver
makes the workload's inputs from the seed (untimed, and kept under
``perfbench/.state`` for the next run with the same seed). The first run
of a workload in a checkout, and the first after the sources change, does
one untimed warm-up pass. Each run then runs passes one at a time, a
closed loop with one client, until S seconds have gone and at least two
passes are done. With ``--trace 1`` untraced and traced passes alternate.

Every pass is checked: each process must exit 0, the outputs must pass
the workload's checks, and their digests must equal those of the first
pass of this run and of the first run of the same sources and seed. The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count passes, ``metrics`` holds the
end-to-end metrics (untraced) or the per-layer ones (traced).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Two passes at least, so that a traced run has an untraced pass to
# compare with and a median is never a single pass.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170


def source_digest(src: Path) -> str:
    """Identifies the program's sources, standing in for the commit."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def threads() -> int:
    return min(len(os.sched_getaffinity(0)), 2)


class Runner:
    """Runs one workload's passes under ``state``: inputs, outputs, reports
    and the digests of earlier runs."""

    def __init__(self, workload, seed: int, state: Path, src: Path):
        self.workload = workload
        self.seed = seed
        self.state = state
        self.src = src
        self.inputs = state / "inputs" / workload.name
        self.work = state / "work" / workload.name
        self.env = {k: v for k, v in os.environ.items() if k != "TAILFIT_THREADS"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.threads = threads()
        self.source = source_digest(src)
        self.passes: list[dict] = []

    def prepare(self) -> None:
        """Generate the inputs unless this seed's are already there."""
        key = {"seed": self.seed, "params": self.workload.params}
        meta = self.inputs / "meta.json"
        if meta.is_file():
            saved = json.loads(meta.read_text())
            if saved["key"] == key:
                self.expected = saved["expected"]
                return
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.expected = self.workload.generate(self.inputs, self.seed)
        meta.write_text(json.dumps({"key": key, "expected": self.expected}))

    def warm_up(self) -> None:
        """One untimed pass per workload and program version in this
        checkout: it compiles the program's bytecode and fills the page
        cache, which later runs find warm."""
        marker = self.state / "warm" / f"{self.workload.name}-{self.source}"
        if not marker.exists():
            self.run_pass("warmup", trace=False)
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()

    def spawn(self, args: list, report: Path, trace: bool) -> dict:
        """Run one ``tailfit`` command line in a child process."""
        cmd = [sys.executable, str(BENCH / "child.py"), str(report), str(int(trace)), *args]
        kind = f"tailfit {args[2]}"  # args start with --threads N
        report.unlink(missing_ok=True)
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True,
            )
        except subprocess.TimeoutExpired as exc:
            raise CheckFailed(f"{kind} timed out after {exc.timeout} s") from exc
        if proc.returncode != 0 or not report.is_file():
            raise CheckFailed(f"{kind} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        r = json.loads(report.read_text())
        r["setup_s"] = r["ready"] - start
        return r

    def run_pass(self, label: str, trace: bool) -> dict:
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = {"label": label, "traced": trace, "ok": False}
        try:
            reports = [
                self.spawn(args, out / f"report{i}.json", trace)
                for i, args in enumerate(
                    self.workload.steps(self.inputs, out, self.seed, self.threads)
                )
            ]
            rec["digests"], rec["counts"] = self.workload.check(out, self.expected)
            rec.update(
                ok=True,
                wall_s=sum(r["done"] - r["ready"] for r in reports),
                setup_s=[r["setup_s"] for r in reports],
                peak_rss_mb=max(r["maxrss_kb"] for r in reports) / 1024.0,
                cpu_s=sum(r["cpu_s"] for r in reports),
            )
            if trace:
                rec["trace"] = merge_traces([r["trace"] for r in reports])
        except CheckFailed as exc:
            rec["error"] = str(exc)
        self.passes.append(rec)
        return rec

    def check_digests(self) -> None:
        """Fail every pass whose digests differ from the first run's of
        these sources and seed (this run's first good pass if none)."""
        store = self.state / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = "|".join([
            self.workload.name, json.dumps(self.workload.params, sort_keys=True),
            f"seed={self.seed}", f"src={self.source}",
        ])
        good = [p for p in self.passes if p["ok"]]
        if key not in known and good:
            known[key] = good[0]["digests"]
            store.write_text(json.dumps(known, indent=1, sort_keys=True))
        for p in good:
            if p["digests"] != known[key]:
                p.update(ok=False, error=f"output digests {p['digests']} differ from {known[key]}")
        self.reference_digests = known.get(key)


def merge_traces(traces: list[dict]) -> dict:
    merged = {}
    for field in ("total_s", "self_s", "calls", "counters"):
        acc = {}
        for t in traces:
            for name, value in t[field].items():
                acc[name] = acc.get(name, 0) + value
        merged[field] = acc
    return merged


def run_workload(workload, seed: int, seconds: float, trace: bool, state: Path,
                 src: Path = ROOT / "src", log=print) -> dict:
    """Run one workload; return the result line and the pass records."""
    runner = Runner(workload, seed, state, src)
    runner.prepare()
    runner.warm_up()
    deadline = time.monotonic() + seconds
    i = 0
    while i < MIN_PASSES or time.monotonic() < deadline:
        runner.run_pass(f"pass{i}", trace and i % 2 == 1)
        i += 1
    runner.check_digests()

    for p in runner.passes:
        if p["ok"]:
            log(f"pass {p['label']}: traced={p['traced']} wall_s={p['wall_s']:.4f} "
                f"setup_s={[round(s, 4) for s in p['setup_s']]} "
                f"peak_rss_mb={p['peak_rss_mb']:.1f} cpu_s={p['cpu_s']:.4f}")
        else:
            log(f"pass {p['label']}: FAILED {p['error']}")
    log(f"threads={runner.threads} digests={json.dumps(runner.reference_digests, sort_keys=True)}")

    measured = [p for p in runner.passes if p["ok"] and p["label"] != "warmup"]
    untraced = [p for p in measured if not p["traced"]]
    failed = sum(not p["ok"] for p in runner.passes)
    metrics = {}
    if trace and untraced and len(measured) > len(untraced):
        metrics = per_layer([p for p in measured if p["traced"]], untraced)
    elif not trace and untraced:
        metrics = end_to_end(untraced)
    units = {name: spec[0] for name, spec in {**END_TO_END, **PER_LAYER}.items()}
    line = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runner.passes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"line": line, "passes": runner.passes, "threads": runner.threads,
            "digests": runner.reference_digests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "tailfit" / "__init__.py").is_file():
        print(f"error: no tailfit sources at {src}", file=sys.stderr)
        return 2
    state = BENCH / ".state"
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace), state, src)
    record = state / "work" / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(json.dumps(result["line"]))
    return 0 if result["line"]["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
