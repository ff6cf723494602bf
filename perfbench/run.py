#!/usr/bin/env python3
"""Build the benchmark harness from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fit-exec --seed 1 --seconds 20 --trace 0

The Go build cache, temporary files and the harness binary live under
.bench_build/ in the current directory, so building writes nothing
outside it. Arguments are passed to the harness unchanged; its exit code
is returned. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(out, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
