"""Time from process start to the first experiment call of the CLI.

Run as ``python3 perfbench/setup_probe.py <uwbfde argv...>``. The probe
runs ``uwbfde.cli.main`` with its experiment functions replaced by a stop
that prints ``time.monotonic()`` (a clock shared by all processes on the
machine) and exits at once, so the parent can subtract its own clock
reading taken just before starting this process.
"""

import os
import sys
import time
import types
from pathlib import Path


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from uwbfde import cli

    def reached(*_args, **_kwargs):
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    for attr, value in list(vars(cli).items()):
        if isinstance(value, types.FunctionType) and value.__module__ == "uwbfde.harness":
            setattr(cli, attr, reached)
    cli.main(sys.argv[1:])
    sys.exit("setup probe: no experiment function was reached")


if __name__ == "__main__":
    main()
