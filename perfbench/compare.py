"""Compare two result files written by run.py under .perfbench/results/.

Refuses results of different workloads, passes or kernel backends: a timing
taken on the compiled kernel says nothing about the pure-numpy one.

Usage: python3 perfbench/compare.py BEFORE.json AFTER.json
"""

import json
import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for key, a, b in (("workload", before["workload"], after["workload"]),
                      ("trace", before["trace"], after["trace"]),
                      ("backend", before["stamp"]["backend"], after["stamp"]["backend"])):
        if a != b:
            print(f"refusing to compare: {key} differs ({a} vs {b})", file=sys.stderr)
            return 2
    print(f"{before['workload']} on backend {before['stamp']['backend']}: "
          f"commit {before['stamp']['commit']} -> {after['stamp']['commit']}")
    for name, m in before["metrics"].items():
        a, b = m["value"], after["metrics"].get(name, {}).get("value")
        change = f"{b / a - 1:+.1%}" if a and b is not None else "n/a"
        print(f"  {name:42s} {a!s:>22} -> {b!s:>22} {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
