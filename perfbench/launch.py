"""Start a ``repro.cli`` command, optionally with span recording.

    python3 perfbench/launch.py serve INDEX --port 0

With ``PERFBENCH_TRACE_OUT`` set, the layer wrappers of ``tracing.py`` are
installed before ``repro.cli`` is imported (so names it imports from the
program's modules are the wrapped ones), and the spans are written to
that path when the process exits.  Servers exit cleanly on SIGINT.
"""

from __future__ import annotations

import atexit
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> int:
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    if out:
        from repro.kernels import get_kernel
        from tracing import Recorder

        recorder = Recorder()
        recorder.install(kernel_class=type(get_kernel()))
        atexit.register(recorder.dump, out)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
