"""Launch the program's CLI with the benchmark's layer wrappers installed.

Usage: ``python3 perfbench/traced_serve.py <trace-dir> serve <spec> ...``
-- everything after the trace directory is handed to ``repro``'s CLI
unchanged.  Pool workers fork from this process and inherit the
wrappers.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    trace_dir = sys.argv[1]
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import tracing

    tracing.install(trace_dir)
    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
