#!/usr/bin/env python3
"""Benchmark of the factor-regimes pipeline on paper-shaped synthetic panels.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from the repository root. It builds its inputs from --seed with
`synthgen.generate`, then drives the `factor-regimes` subcommands the way
a shell user does: one process per stage, `python3 -m factorregimes.cli`
with `src` on PYTHONPATH. One client runs one stage at a time, in a
closed loop: whole cycles, one chain (one panel's stages in order) per
panel, while one more cycle still fits in --seconds. BLAS and OpenMP
threads are pinned to one in every process before numpy loads.

--trace 0 times the chains with tracing off and reports the end-to-end
metrics. --trace 1 runs one chain untraced, then once more with every
stage run through `replay.py`, which records spans around the library
calls the CLI makes while running the CLI itself, and then times single
calls into each layer; it reports the per-layer metrics. Both modes check the artifacts and count every stage
that exits non-zero or fails a check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it, prefixed
"detail: ", holds the machine facts, artifact digests, checks and the
extra per-workload figures. --smoke shrinks every panel so a run takes
seconds; the benchmark's own tests use it.

Workloads, metrics and the layer each metric belongs to are described in
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from benchenv import PINNED_THREADS, SRC, with_threads


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny panels, for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its stage process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "factorregimes", "cli.py")):
        print(f"error: no factorregimes sources under {SRC}", file=sys.stderr)
        return 2
    # numpy reads the thread variables once, when it loads
    os.environ.update(with_threads(os.environ, PINNED_THREADS))
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result, detail = workloads.run(args)
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
