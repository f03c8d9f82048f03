"""The ``gsets`` process: ``python -m gsets`` and the ``gsets`` console script.

Once ``cli.main`` has returned, the process ends without interpreter
teardown: the ``atexit`` handlers run, both streams are flushed, and
``os._exit`` ends it with ``main``'s code.  Module teardown, the final
garbage collection and freeing every object would cost a small call more
than its own work.  Under a profiler, tracer or debugger, such
as ``python -m cProfile -m gsets``, the process exits normally, so the tool
still gets control back and writes its report.
"""

import atexit
import os
import sys

from .cli import main


def _observed() -> bool:
    """Whether a tool runs this program and expects control back after it.
    From Python 3.12 cProfile registers with ``sys.monitoring`` instead of
    setting a profile function.  pdb stops tracing on ``continue`` when no
    breakpoint is set, so it is known by ``bdb``, the module every pdb
    session loads."""
    monitoring = getattr(sys, "monitoring", None)  # tool ids are 0 through 5
    return (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)))
        or "bdb" in sys.modules
    )


def run():
    """Run the CLI on ``sys.argv`` and end the process with its exit code; never returns."""
    code = main()
    if not _observed():
        atexit._run_exitfuncs()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
