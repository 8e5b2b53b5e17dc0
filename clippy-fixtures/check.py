#!/usr/bin/env python3
"""Checks that clippy enforces the workspace invariants on known fixtures.

Run from the repository root: `python3 clippy-fixtures/check.py`. Runs
`cargo clippy -- -D warnings` once over every binary in `src/bin/`. Each
`*_bad.rs` must fail with exactly the lints its `//! Fails with:` header
names; each `*_good.rs` must pass clean. Exits nonzero on any mismatch.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BINS = os.path.join(HERE, "src", "bin")


def main():
    clippy = subprocess.run(
        ["cargo", "clippy", "--offline", "--quiet", "--keep-going", "--bins",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"),
         "--message-format=json", "--", "-D", "warnings"],
        stdout=subprocess.PIPE, text=True)
    fired = {}
    for line in clippy.stdout.splitlines():
        msg = json.loads(line)
        code = msg.get("message", {}).get("code")
        if msg.get("reason") == "compiler-message" and code:
            fired.setdefault(msg["target"]["name"], set()).add(code["code"])

    failures = 0
    for name in sorted(f[:-3] for f in os.listdir(BINS) if f.endswith(".rs")):
        with open(os.path.join(BINS, name + ".rs")) as f:
            header = re.search(r"^//! Fails with: (.+)$", f.read(), re.M)
        want = {c.strip() for c in header.group(1).split(",")} if header else set()
        got = fired.get(name, set())
        ok = got == want and bool(want) == name.endswith("_bad")
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {', '.join(sorted(got)) or 'clean'}"
              + ("" if ok else f" (want {', '.join(sorted(want)) or 'clean'})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
