"""One digest of detsum's reports over the benchmark's operations.

    python3 tools/report_digest.py --seed 0 [--argv-file argvs.jsonl]

Runs every operation of cycles 0 and 1 of the four workloads of
``bench/workloads.py`` through an in-process ``detsum.cli.main``, then
each argv of ``--argv-file`` (one JSON array of strings per line), and
prints the number of calls and one sha256 over every call's exit code and
stdout, in order.  Two trees that print the same digest at a seed wrote
byte-identical reports for all of those calls.  ``detsum`` is imported
from the ``src`` directory beside this script, so a copy of the script in
another checkout digests that checkout.  ``bench/`` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from detsum.cli import main as detsum_main  # noqa: E402

CYCLES = (0, 1)


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = detsum_main(list(argv))
        except SystemExit as exc:  # argparse's -h and usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def argvs(seed: int, argv_file: Path | None):
    for workload in workloads.WORKLOADS:
        for cycle in CYCLES:
            for op in workloads.make_cycle(workload, seed, cycle):
                yield list(op.argv)
    if argv_file is not None:
        for line in argv_file.read_text().splitlines():
            if line.strip():
                yield json.loads(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--argv-file", type=Path, help="one JSON array of argv strings per line")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    calls = 0
    for call in argvs(args.seed, args.argv_file):
        code, out = run(call)
        digest.update(f"{code}\n{len(out)}\n{out}".encode())
        calls += 1
    print(f"calls: {calls}")
    print(f"sha256: {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
