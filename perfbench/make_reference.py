"""Record the paper-eval score-card fingerprints of the suite seeds.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py 20 42

Runs one suite per seed (each twice, to prove the card is
deterministic) and rewrites ``perfbench/reference.json``.  Only do this
when a change is meant to alter the suite's results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import paper_eval

    statements = paper_eval.Statements(0.0)
    fingerprints = {}
    for seed in (int(arg) for arg in argv):
        cfg = paper_eval.config(seed)
        cards = set()
        for _ in range(2):
            statements.install(timed=False)
            *_walls, committed, outcome = paper_eval.run_suite(cfg, statements)
            statements.patches.restore()
            cards.add((paper_eval.fingerprint(outcome), committed))
        if len(cards) != 1:
            print(f"seed {seed}: suite is not deterministic: {cards}")
            return 1
        (fingerprint, committed), = cards
        fingerprints[str(seed)] = fingerprint
        print(seed, committed, fingerprint, flush=True)
    with open(paper_eval.REFERENCE, "w") as handle:
        json.dump({"fingerprints": fingerprints}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
