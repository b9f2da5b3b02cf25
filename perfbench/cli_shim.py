"""Run ``isotopelab.cli.main`` in a traced child process.

Usage: ``python cli_shim.py spans|count OUT_JSON -- CLI ARGS...``

Imports the library, notes when the import finished (on the monotonic
clock, which the parent shares, so the parent can measure start-up), installs
the span wrappers or the counters from ``tracer``, runs the command as a root
span named ``cli.<command>``, writes what it recorded to OUT_JSON and exits
with the command's exit code.  Standard output and error belong to the CLI.
"""

import json
import sys
import time

import isotopelab
import isotopelab.cli

t_import = time.monotonic()

import tracer  # noqa: E402  (after the timed library import)


def main():
    mode, out_path, sep, *args = sys.argv[1:]
    if mode not in ("spans", "count") or sep != "--" or not args:
        raise SystemExit(__doc__)
    record = {"t_import": t_import}
    if mode == "spans":
        rec = tracer.SpanRecorder()
        patches = tracer.install_spans(rec)
        try:
            rc = rec.root(0, f"cli.{args[0]}", lambda: isotopelab.cli.main(args))
        finally:
            patches.restore()
        record["spans"] = rec.spans
    else:
        counts = {}
        patches = tracer.install_counters(counts)
        try:
            rc = isotopelab.cli.main(args)
        finally:
            patches.restore()
        record["counts"] = counts
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
