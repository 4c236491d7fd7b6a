"""One process of a benchmark pass.

    python3 child.py REPORT TRACE ARGS...

ARGS are a ``tailfit`` command line. The report records, on the
system-wide monotonic clock, when tailfit finished importing and when the
work ended, with peak RSS and CPU time. With TRACE=1 the spans go to
REPORT's ``.spans.tsv`` sibling and their summary into the report.
"""
from __future__ import annotations

import json
import resource
import sys
import time


def main(argv) -> int:
    report_path, trace, *args = argv
    import tailfit.cli

    ready = time.monotonic()
    tracer = None
    if trace == "1":
        import spans
        from tailfit import binning, estimation, ingestion

        tracer = spans.Tracer()
        spans.install(
            tracer, {"ingestion": ingestion, "binning": binning, "estimation": estimation}
        )
    code = tailfit.cli.main(args)
    done = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "ready": ready,
        "done": done,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        tracer.write(report_path + ".spans.tsv")
        report["trace"] = tracer.summary()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
