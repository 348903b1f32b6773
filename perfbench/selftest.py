"""Self-test of the benchmark's tracing.

Checks that every function spans.py wraps is expected to fire on at least
one workload, then runs each workload once with --trace 1, which fails
when an expected wrapper never fires.  A refactor that moves a call away
from where it is patched therefore fails here instead of reporting zeros.
Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]
    import run
    import spans

    failures = []
    expected = {name for names in run.EXPECTED_SPANS.values() for name in names}
    unexpected = sorted(set(spans.WRAPPED) - expected)
    if unexpected:
        failures.append(f"wrapped but expected on no workload: {unexpected}")
    for workload in run.WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", "1"]
        child = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = child.stdout.strip().splitlines()
        correct = child.returncode == 0 and bool(lines) and json.loads(lines[-1]).get("correct") is True
        print(f"{workload}: {'ok' if correct else 'FAILED'}")
        if not correct:
            failures.append(f"{workload}: exit {child.returncode}\n{child.stderr}")
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
