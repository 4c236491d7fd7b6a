"""Command-line surface: ingest event logs, simulate samples, bin,
fit, compare families and render result tables.

Every stage reads/writes plain files or standard pipes, so pipelines are
independently inspectable; with a fixed seed every output is
byte-reproducible.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import binning, estimation, ingestion, pool, synthesis
from .distributions import LognormalModel, PowerLawModel
from .estimation import DegenerateSampleError, FitConvergenceError
from .sample import DurationSample
from .synthesis import GibratProcess, SeededGenerator

EXIT_OK = 0
EXIT_IO = 1
EXIT_DEGENERATE = 2

REPORT_COLUMNS = [
    "dist", "gamma(pl)", "p(pl)", "xmin", "mu", "sigma", "p(ln)", "LR", "n", "verdict",
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pool.keep_freed_memory(pool.CLI_MMAP_THRESHOLD, pool.CLI_TRIM_THRESHOLD)
    try:
        args.threads = _thread_count(args.threads)
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DegenerateSampleError, FitConvergenceError) as exc:
        print(f"error: degenerate-data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (ValueError, csv.Error) as exc:
        print(f"error: invalid-input: {exc}", file=sys.stderr)
        return EXIT_IO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailfit",
        description="Fit, discriminate and simulate power-law and lognormal "
        "models of inter-event durations.",
    )
    parser.add_argument(
        "--threads",
        metavar="N",
        default=None,
        help="worker processes, capped by the usable CPUs, for fit's bootstrap replicates "
        "and for reading and writing large duration text files; event CSVs are parsed "
        "in the calling process (default: $TAILFIT_THREADS, else 1); outputs are "
        "byte-identical for any N",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="event CSV -> pooled durations")
    p.add_argument("--events", required=True, help="CSV with header actor,timestamp[,direction]")
    p.add_argument("--direction", choices=["outbound", "inbound"], default=None)
    p.add_argument("--output", default="-", help="durations file ('-' for stdout)")
    p.add_argument("--summary", default=None, help="write ingest summary JSON here")
    p.add_argument("--format", choices=["text", "bin"], default="text")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("simulate", help="draw synthetic samples")
    p.add_argument("kind", choices=["lognormal", "powerlaw", "expexp", "gibrat"])
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("-n", "--n", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--s0", type=float, default=1.0, help="gibrat: initial size")
    p.add_argument("--steps", type=int, default=100, help="gibrat: steps")
    p.add_argument("--agents", type=int, default=1000, help="gibrat: trajectories")
    p.add_argument("--xi-mean", type=float, default=0.0, help="gibrat: log-factor mean")
    p.add_argument("--xi-std", type=float, default=1.0, help="gibrat: log-factor std")
    p.add_argument("--output", default="-")
    p.add_argument("--format", choices=["text", "bin"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bin", help="histogram a duration sample")
    p.add_argument("--input", default="-")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bins", type=int, help="linear bin count")
    group.add_argument("--width", type=float, help="linear bin width")
    group.add_argument("--log-bins", type=int, help="log bins per decade")
    p.add_argument("--rescale", type=float, default=None)
    p.add_argument("--quantize", type=float, default=None)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_bin)

    p = sub.add_parser("fit", help="fit one or both families; JSON report")
    p.add_argument("--input", default="-")
    p.add_argument("--dist", choices=["powerlaw", "lognormal", "both"], default="both")
    p.add_argument("--xmin", type=float, default=None)
    p.add_argument("--bootstrap", type=int, default=0, help="bootstrap replicates (0 = skip)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rescale", type=float, default=None)
    p.add_argument("--quantize", type=float, default=None)
    p.add_argument("--label", default=None, help="dataset label for the dist column")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="log-likelihood ratio on a common tail")
    p.add_argument("--input", default="-")
    p.add_argument("--xmin", type=float, default=None, help="default: power-law fit's cutoff")
    p.add_argument("--threshold", type=float, default=estimation.VERDICT_THRESHOLD)
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="render fit JSONs as a table")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument("--output", default="-")
    p.set_defaults(func=cmd_report)

    return parser


def _thread_count(flag: str | None) -> int:
    text = flag if flag is not None else os.environ.get("TAILFIT_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"--threads / TAILFIT_THREADS must be a positive integer, got {text!r}")
    return threads


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _read_sample(path: str, threads: int) -> DurationSample:
    if path == "-":
        return ingestion.read_durations_text(sys.stdin)
    if path.endswith(".bin") or path.endswith(".tfd"):
        with open(path, "rb") as fh:
            return ingestion.read_durations_binary(fh)
    with open(path) as fh:
        return ingestion.read_durations_text(fh, threads)


def _write_sample(s: DurationSample, path: str, fmt: str, threads: int) -> None:
    if fmt == "bin":
        if path == "-":
            ingestion.write_durations_binary(s, sys.stdout.buffer)
        else:
            with open(path, "wb") as fh:
                ingestion.write_durations_binary(s, fh)
        return
    out, close = _open_out(path)
    try:
        ingestion.write_durations_text(s, out, threads)
    finally:
        if close:
            out.close()


def _write_text(text: str, path: str) -> None:
    out, close = _open_out(path)
    try:
        out.write(text)
    finally:
        if close:
            out.close()


def _write_json(obj, path: str) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def cmd_ingest(args) -> int:
    with open(args.events) as fh:
        events = ingestion.parse_events(fh, args.direction)
        sample, summary = ingestion.interevent_durations(events)
    ingestion.check_malformed_fraction(summary)
    _write_sample(sample, args.output, args.format, args.threads)
    if args.summary:
        _write_json(summary.to_dict(), args.summary)
    return EXIT_OK


def cmd_simulate(args) -> int:
    g = SeededGenerator(args.seed)
    if args.kind == "gibrat":
        process = GibratProcess(
            s0=args.s0, steps=args.steps, agents=args.agents,
            xi_mean=args.xi_mean, xi_std=args.xi_std,
        )
        sizes = synthesis.run_gibrat(process, g)
        lines = ["agent,step,size"]
        for agent in range(sizes.shape[0]):
            for step in range(sizes.shape[1]):
                lines.append(f"{agent},{step},{float(sizes[agent, step])!r}")
        _write_text("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    if args.kind == "lognormal":
        sample = synthesis.sample_lognormal(LognormalModel(args.mu, args.sigma), args.n, g)
    elif args.kind == "powerlaw":
        sample = synthesis.sample_powerlaw(PowerLawModel(args.gamma, args.tau), args.n, g)
    else:
        sample = synthesis.sample_exp_of_exponential(args.gamma, args.tau, args.n, g)
    _write_sample(sample, args.output, args.format, args.threads)
    return EXIT_OK


def _preprocess(sample: DurationSample, args) -> tuple[DurationSample, int | None]:
    dropped = None
    if getattr(args, "rescale", None) is not None:
        sample = binning.rescale(sample, args.rescale)
    if getattr(args, "quantize", None) is not None:
        sample, dropped = binning.quantize(sample, args.quantize)
    return sample, dropped


def cmd_bin(args) -> int:
    sample = _read_sample(args.input, args.threads)
    sample, _ = _preprocess(sample, args)
    if args.log_bins is not None:
        hist = binning.bin_log(sample, args.log_bins)
    elif args.width is not None:
        try:
            hist = binning.bin_linear(sample, _bins_of_width(sample, args.width))
        except ValueError as exc:
            raise ValueError(f"--width {args.width!r}: {exc}") from None
    else:
        hist = binning.bin_linear(sample, args.bins)
    _write_text(hist.to_csv(), args.output)
    return EXIT_OK


def _bins_of_width(sample: DurationSample, width: float) -> int:
    """The number of linear bins of about ``width`` over the sample's range."""
    if not width > 0:
        raise ValueError("must be positive")
    bins = (sample.x_max - sample.x_min) / width
    if not np.isfinite(bins):
        raise ValueError(
            f"[{sample.x_min!r}, {sample.x_max!r}] holds more bins than a float64 can count"
        )
    return max(1, int(round(bins)))


def cmd_fit(args) -> int:
    sample = _read_sample(args.input, args.threads)
    sample, dropped = _preprocess(sample, args)
    g = SeededGenerator(args.seed)

    row = None
    pl = ln = None
    if args.dist in ("powerlaw", "both"):
        pl = estimation.fit_powerlaw_tail(sample, xmin=args.xmin)
        if args.bootstrap:
            boot = estimation.bootstrap_pvalue(
                sample, pl, args.bootstrap, g, quantize_step=args.quantize,
                workers=args.threads,
            )
            pl = replace(pl, p_value=boot.p)
        row = pl.to_json_dict(dist=args.label)
    if args.dist in ("lognormal", "both"):
        ln = estimation.fit_lognormal(sample, xmin=args.xmin)
        if args.bootstrap:
            boot = estimation.bootstrap_pvalue(
                sample, ln, args.bootstrap, g, quantize_step=args.quantize,
                workers=args.threads,
            )
            ln = replace(ln, p_value=boot.p)
        ln_row = ln.to_json_dict(dist=args.label)
        if row is None:
            row = ln_row
        else:
            row["mu"], row["sigma"] = ln_row["mu"], ln_row["sigma"]
            row["loglik_p"] = ln_row["loglik_p"]
    if args.dist == "both":
        # With --xmin both fits are the ones compare_families would make; the
        # scan's power-law fit is not (its gamma comes from suffix sums).
        fixed = args.xmin is not None
        comparison = estimation.compare_families(
            sample, pl.xmin, powerlaw=pl if fixed else None, lognormal=ln if fixed else None
        )
        row["LR"], row["LR_p"] = comparison.lr, comparison.p_value
    if dropped is not None:
        row["quantize_dropped"] = dropped
    _write_json(row, args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    sample = _read_sample(args.input, args.threads)
    xmin = args.xmin
    if xmin is None:
        xmin = estimation.fit_powerlaw_tail(sample).xmin
    report = estimation.compare_families(sample, xmin, threshold=args.threshold)
    _write_json(
        {
            "lr": report.lr,
            "normalized": report.normalized,
            "p_value": report.p_value,
            "verdict": report.verdict,
            "xmin": report.xmin,
            "n_tail": report.n_tail,
        },
        args.output,
    )
    return EXIT_OK


def cmd_report(args) -> int:
    rows = []
    skipped = []
    for path in args.inputs:
        with open(path) as fh:
            obj = json.load(fh)
        # A verdict is read from LR and LR_p, so each is a number or null.
        if not isinstance(obj, dict) or "dist" not in obj or "n" not in obj or not all(
            v is None or type(v) in (int, float) for v in (obj.get("LR"), obj.get("LR_p"))
        ):
            skipped.append(path)
            continue
        rows.append(obj)
    for path in skipped:
        print(f"error: schema-mismatch: {path}", file=sys.stderr)
    if not rows:
        print("error: no-valid-inputs", file=sys.stderr)
        return EXIT_IO
    _write_text(_render_table(rows, args.format), args.output)
    return EXIT_OK


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_table(rows: list[dict], fmt: str) -> str:
    table = []
    for row in rows:
        table.append([
            _fmt(row.get("dist")),
            _fmt(row.get("gamma")),
            _fmt(row.get("p")),
            _fmt(row.get("xmin")),
            _fmt(row.get("mu")),
            _fmt(row.get("sigma")),
            _fmt(row.get("loglik_p")),
            _fmt(row.get("LR")),
            _fmt(row.get("n")),
            estimation.verdict(row.get("LR"), row.get("LR_p")),
        ])
    if fmt == "csv":
        lines = [",".join(REPORT_COLUMNS)]
        lines += [",".join(cells) for cells in table]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(REPORT_COLUMNS[i]), *(len(cells[i]) for cells in table))
        for i in range(len(REPORT_COLUMNS))
    ]
    header = "| " + " | ".join(c.ljust(w) for c, w in zip(REPORT_COLUMNS, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    body = [
        "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
        for cells in table
    ]
    return "\n".join([header, rule, *body]) + "\n"


if __name__ == "__main__":
    sys.exit(main())
