"""One-shot check of the behaviour oracle: the sha256 of the ``.report``
that ``hiershare run <name>`` writes for each bundled scenario at its
default seed, against the digests pinned at the seed commit in
``pins.json``. Also times each run; bench-63 is the curve-heavy one.

    python3 perfbench/oracle.py

Exits 1 if any digest differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time

from run import OUT, PINS, import_program


def main() -> int:
    hs = import_program()
    with open(PINS, encoding="utf-8") as handle:
        pinned = json.load(handle)["bundled_report_sha256"]
    out_dir = os.path.join(OUT, "oracle")
    status = 0
    for name in hs.config.bundled_scenario_names():
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = hs.cli.main(["run", name, "--out", out_dir])
        elapsed = time.perf_counter() - start
        with open(os.path.join(out_dir, f"{name}.report"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        verdict = "ok" if code == 0 and digest == pinned.get(name) else "MISMATCH"
        if verdict != "ok":
            status = 1
        print(f"{name:14s} {elapsed:8.3f} s  exit {code}  sha256 {digest}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
