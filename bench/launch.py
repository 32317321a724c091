"""Run one stefanlab command line in this interpreter, as the entry point does.

Usage: python3 launch.py --stamp PATH [--spans PATH] [--probe] -- ARGS...

Writes to the stamp file the CLOCK_MONOTONIC time at which the mode handler
was entered, so the caller can measure set-up (interpreter start, import,
config parse) from outside.  ``--probe`` returns 0 at that point instead of
running the handler.  ``--spans`` installs the tracer before the command
line runs and writes its spans there.  Exits with the command line's exit
code.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

HANDLERS = ("cmd_spectrum", "cmd_run", "cmd_shoot", "cmd_verify_all")


def main() -> int:
    sep = sys.argv.index("--")
    p = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1])
    p.add_argument("--stamp", required=True)
    p.add_argument("--spans")
    p.add_argument("--probe", action="store_true")
    opts = p.parse_args(sys.argv[1:sep])

    from stefanlab import cli

    tracer = None
    if opts.spans:
        import tracer as tracing
        tracer = tracing.install()
    entered = []
    for name in HANDLERS:
        handler = getattr(cli, name)

        @functools.wraps(handler)
        def stamped(*args, _handler=handler, **kwargs):
            entered.append(time.monotonic())
            return 0 if opts.probe else _handler(*args, **kwargs)

        setattr(cli, name, stamped)
    try:
        return cli.main(sys.argv[sep + 1:])
    finally:
        if entered:
            with open(opts.stamp, "w") as fh:
                fh.write(repr(entered[0]) + "\n")
        if tracer is not None:
            tracer.dump(opts.spans)


if __name__ == "__main__":
    sys.exit(main())
