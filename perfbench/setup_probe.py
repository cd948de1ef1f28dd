"""Set-up probe: a fresh interpreter imports fracspec and runs one operation.

    python3 perfbench/setup_probe.py <workload> <scratch-dir>

Prints "ready" once the workload's first operation has returned; run.py
times the probe from its launch to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (needs the src path above)


def main(name: str, out_dir: str) -> int:
    workloads.build(name, out_dir).ops[0].run()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
