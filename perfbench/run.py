#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Every file the Go toolchain writes (build cache, temporaries, the binary)
goes under the build directory: $CARGO_TARGET_DIR when set, else
.bench_build, relative to the repository root. Span dumps of traced runs
go to .bench_out. The last line of standard output is the result object.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def go_env(build):
    env = dict(os.environ)
    env.update(
        GOCACHE=str(build / "gocache"),
        GOTMPDIR=str(build / "tmp"),
        GOPATH=str(build / "gopath"),
        GOMODCACHE=str(build / "gopath" / "mod"),
        XDG_CONFIG_HOME=str(build / "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main(args):
    build = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = ROOT / build
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = go_env(build)

    if args == ["--selftest"]:
        return subprocess.run(["go", "test", "-count=1", "."], cwd=HERE, env=env).returncode

    binary = build / "perfbench"
    built = subprocess.run(["go", "build", "-o", str(binary), "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    cmd = [str(binary), "--out", str(ROOT / ".bench_out"), "--commit", commit()] + args
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
