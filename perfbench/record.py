"""Record the reference outputs of every pool entry of each workload.

Run only at a commit whose outputs are known good; run.py compares every
experiment against these files to 1e-12 relative.

Usage: python3 perfbench/record.py [workload ...]
"""

import json
import sys

from metrics import pin_blas

pin_blas()
import workloads  # noqa: E402


def main(names):
    workloads.REFERENCE.mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        wl = workloads.setup(name)
        entries = [json.dumps(wl.run(i)[1]) for i in range(workloads.POOL)]
        text = ('{"stamp": ' + json.dumps(workloads.stamp()) + ',\n"entries": [\n'
                + ",\n".join(entries) + "\n]}\n")
        (workloads.REFERENCE / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"recorded {workloads.POOL} entries of {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
