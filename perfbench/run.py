#!/usr/bin/env python3
"""Build and run the ultraspan benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune, runs it with the same arguments and
forwards its output.  The last line of stdout is the result object; for an
untraced run this script adds ``peak_rss_mb``, the peak resident set of
the benchmark process as the kernel reports it once the process has ended.
Exits non-zero, without a result, when the checkout holds no sources to
build.
"""

import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("lib", "core", "dune"))):
        print("run.py: no ultraspan sources here; run from the root of a checkout", file=sys.stderr)
        return 2
    build = subprocess.run(
        # no shared dune cache: the build writes only inside the checkout
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(out)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["0"]:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MiB"}
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
