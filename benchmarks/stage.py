"""Run one svkit CLI command in this process and report how it went.

    python3 benchmarks/stage.py --src SRC --report REPORT.json
        [--spans SPANS.npz --tdnn-layers L] -- <svkit arguments>

Imports svkit from SRC (and refuses any other copy), calls `svkit.cli.main`
with the arguments after `--`, and writes REPORT.json with the exit code,
the in-process wall time of `main`, the import time and the peak RSS.  With
`--spans`, every public function of svkit's layer modules is wrapped first
and the recorded spans are written to SPANS.npz.  The exit code is main's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    t_enter = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the svkit package")
    parser.add_argument("--report", required=True)
    parser.add_argument("--stage", required=True, help="stage name for the root span")
    parser.add_argument("--spans", help="trace the layers and write spans here")
    parser.add_argument("--tdnn-layers", type=int, default=0, dest="tdnn_layers")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    src = os.path.realpath(args.src)
    sys.path.insert(0, src)
    import svkit.cli

    if not os.path.realpath(svkit.cli.__file__).startswith(src + os.sep):
        print(f"stage: svkit imported from {svkit.cli.__file__}, not {src}", file=sys.stderr)
        return 3
    import_s = time.perf_counter() - t_enter

    run = svkit.cli.main
    tracer = None
    if args.spans:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer

        tracer = Tracer(args.tdnn_layers)
        tracer.install()
        run = tracer.wrap(f"cli.{args.stage}", run)

    t0 = time.perf_counter()
    rc = run(argv)
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    if tracer is not None:
        tracer.save(args.spans)
    report = {
        "rc": rc,
        "wall_s": wall_s,
        "import_s": import_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
