"""Regenerate `expected.json`, the frozen outputs the benchmark checks
its ops against. Run from the repository root:

    python3 perfbench/freeze.py

Only re-freeze when a change to the program's outputs is intended, and
say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cli, argv: list[str]) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue().splitlines()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wmteleport import cli

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "manifest.json"
        reproduce_rc, _ = _run(cli, ["reproduce", "--seed", "0", "--out", str(out)])
        data = out.read_bytes()
    check_rc, check_lines = _run(cli, ["check", "--seed", "0"])
    fault_rc, fault_lines = _run(
        cli, ["check", "--seed", "0", "--inject-fault", "kraus_completeness"])
    if check_rc != 0:
        raise SystemExit("the invariant suite fails at seed 0; nothing frozen")
    expected = {
        "reproduce_rc": reproduce_rc,
        "reproduce_manifest": json.loads(data),
        "reproduce_manifest_sha256": hashlib.sha256(data).hexdigest(),
        "check_lines": check_lines,
        "check_fault_rc": fault_rc,
        "check_fault_lines": fault_lines,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
