"""Run one `retrodictor` CLI command in this process with the tracer installed.

    python3 perfbench/child.py --spans SPANS.jsonl [--op N] -- <retrodictor argv>

The subprocess workloads use this for their traced runs: the wrappers must be
in place before `retrodictor.cli.main` is called.  Exits with main's code.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import retrodictor.cli  # noqa: E402  (loads every module the tracer rebinds)
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--op", type=int, default=0, help="operation id stamped on every span")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the retrodictor arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    tracer = Tracer()
    tracer.op = args.op
    tracer.install()
    try:
        return retrodictor.cli.main(argv)
    finally:
        tracer.write(args.spans)


if __name__ == "__main__":
    sys.exit(main())
