"""One workload pass in its own process: ``maxbv.cli.main(["run", ...])``.

Run by ``run.py``; not meant to be started by hand.  Arguments:

    child.py REPORT.json --config INI --seed N --workers W --out DIR
             [--trace] [--setup-only]

The report holds the exit code of the CLI, the CLOCK_MONOTONIC time at which
the first experiment started (so the parent can subtract its spawn time) and,
with ``--trace``, the per-layer metrics; the spans go to ``DIR/spans.jsonl``.
With ``--setup-only`` the process stops where the first experiment would
start, which times set-up alone.
"""

import json
import sys
import time


class _SetupDone(Exception):
    pass


def main(argv: list[str]) -> int:
    report_path, cli_args = argv[0], argv[1:]
    trace = "--trace" in cli_args
    setup_only = "--setup-only" in cli_args
    cli_args = [a for a in cli_args if a not in ("--trace", "--setup-only")]
    out_dir = cli_args[cli_args.index("--out") + 1]

    import maxbv.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer, install  # next to this file

        tracer = Tracer()
        install(tracer)

    marks: dict[str, float] = {}
    run_suite = cli.run_suite

    def first_experiment(*args, **kwargs):
        marks["first_experiment"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        return run_suite(*args, **kwargs)

    cli.run_suite = first_experiment
    try:
        code = cli.main(["run", *cli_args])
    except _SetupDone:
        code = 0
    report = {"exit_code": code, **marks}
    if tracer is not None:
        report["metrics"] = tracer.metrics()
        tracer.dump(f"{out_dir}/spans.jsonl")
    with open(report_path, "w", encoding="utf-8") as fp:
        json.dump(report, fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
