"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sales-rw --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries the details (environment,
sample counts, failure classes, check results).  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sales-rw", "served-ha", "paper-eval")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 3:
        parser.error("--seconds must be at least 3")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    if args.workload == "sales-rw":
        from perfbench import sales_rw as workload
    elif args.workload == "served-ha":
        from perfbench import served_ha as workload
    else:
        from perfbench import paper_eval as workload
    workload.run(args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
