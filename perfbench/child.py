"""One benchmark child: import crbem from the checkout, run one preset.

    python3 perfbench/child.py --result R.json [--trace] [-- crbem run args]

Without crbem run arguments the child only imports and reports when it
was ready, which times set-up.  The result file holds the monotonic
ready time, ``cli.main``'s exit code and wall seconds, the child's peak
RSS and CPU seconds, and with ``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_crbem():
    """Import numpy, scipy and crbem; crbem must come from the checkout."""
    sys.path.insert(0, SRC)
    import crbem
    import crbem.cli

    origin = os.path.dirname(os.path.abspath(crbem.__file__))
    if origin != os.path.join(SRC, "crbem"):
        raise ImportError(f"crbem imported from {origin}, not from {SRC}")
    return crbem


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    crbem = import_crbem()
    result = {"ready": time.monotonic()}
    if args.cli_args:
        tracer = None
        if args.trace:
            from layers import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        code = crbem.cli.main(args.cli_args)
        wall_s = time.perf_counter() - t0
        cpu_s = cpu_seconds() - cpu0
        result.update(
            exit_code=code, wall_s=wall_s, cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            limit = crbem.assembly.SINGULAR_ASPECT_LIMIT
            result["layers"] = tracer.metrics(wall_s, cpu_s, limit)
            result["calls"] = tracer.calls
            result["mesh_counts"] = tracer.mesh_count_table(limit)
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
