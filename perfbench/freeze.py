"""Freeze the output digests the benchmark checks against.

    python3 perfbench/freeze.py 0 20

Runs one untimed iteration of every workload for each seed in the range
(inclusive) and writes the sha256 of its generated inputs and of its output
into ``baseline.json`` next to this file, keeping the file's other keys.
A seed whose iteration fails any check is not frozen; the script then
exits 1.  Re-freeze only when a change alters the program's output on
purpose.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BASELINE = os.path.join(HERE, "baseline.json")


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import gen
    import run
    import workloads

    os.makedirs(run.WORKDIR, exist_ok=True)
    with open(BASELINE, encoding="utf-8") as f:
        doc = json.load(f)
    status = 0
    for name in run.WORKLOADS:
        table = doc["digests"].setdefault(name, {})
        for seed in range(first, last + 1):
            wl = workloads.make(name, seed, run.WORKDIR)
            wl.load()
            wl.prepare()
            it = wl.iterate(None)
            if it.output is not None:
                wl.check(it)
            if it.failed or not it.digest:
                print(f"{name} seed {seed}: {it.failed} of {it.sessions} sessions failed",
                      file=sys.stderr)
                status = 1
                continue
            table[str(seed)] = {"inputs": gen.sha256(wl.inputs), "output": it.digest}
            print(f"{name} seed {seed}: {it.digest}", flush=True)
        doc["digests"][name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(BASELINE, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
