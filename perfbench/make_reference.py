"""Write reference.json: every workload operation's answer at the current code.

    python3 perfbench/make_reference.py

The committed file holds the seed code's answers, which the benchmark checks
later code against.  An operation the seed code refuses is recorded with the
error type it raised; its error reference is that of the next smaller N of
the same problem, so a later version that answers it must answer at least
that well.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)


def main() -> int:
    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in workloads.NAMES:
            entries = {}
            previous = None
            for op in workloads.build(name, scratch).ops:
                try:
                    result = op.run()
                except Exception as exc:
                    entries[op.name] = {"refused": type(exc).__name__, "error": previous}
                    continue
                if isinstance(op, workloads.CliOp):
                    if result != 0:
                        raise RuntimeError(f"{op.name} exited with {result}")
                    with open(op.out, encoding="utf-8", newline="") as fh:
                        entries[op.name] = workloads.summarize_csv(fh.read())
                else:
                    op.ref = {"error": float("inf")}
                    previous = op.check(result)[0]
                    entries[op.name] = {"error": previous}
            reference[name] = entries
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
