"""Run the orthovol CLI under the outside-in tracer.

    python3 perfbench/cli_traced.py STATS_PATH ARGS...

Runs ``orthovol.cli.main(ARGS)`` with every layer traced (see tracer.py),
writes the per-layer counters and the import time of ``orthovol.cli`` to
STATS_PATH as JSON, and exits with the CLI's exit code.  The traced cli_cold
run starts one of these per invocation.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import orthovol.cli  # noqa: E402

import_s = time.perf_counter() - t0
sys.path.insert(0, HERE)
from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install(None)
    try:
        code = orthovol.cli.main(sys.argv[2:])
    except SystemExit as exc:  # argparse exits for --help and bad arguments
        code = exc.code
    finally:
        tracer.uninstall()
        counters = tracer.counters()
        counters["cli.import_s"] = import_s
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(counters, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
