#!/usr/bin/env python3
"""Same-machine performance gate: this checkout against a base commit.

Usage: perf_gate.py <base-commit>

Checks the base commit out into a git worktree, builds `perfbench` in both
trees, then runs the `matrix-mixed` workload in alternating pairs (base
first in even pairs, this checkout first in odd ones) for the `run_seconds`
that BENCHMARK.json declares. Fails when any run exits non-zero, prints
`"correct": false` or `failed > 0`, or when this checkout's median `wall_s`
exceeds the base's by more than the `wall_s` bound in BENCHMARK.json.
Both trees run on the same machine in the same job, so a slow machine
moves both medians together and only a change in the code moves their
ratio.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOAD = "matrix-mixed"
# perfbench's default seed: every operation has a pinned digest there.
SEED = 42
PAIRS = 5


def build(tree):
    """Builds perfbench in `tree`, into that tree's own target directory.

    The binary embeds its source paths (panic locations). The two trees'
    paths differ in length, which shifts all code by the difference and so
    changes its alignment: the same commit built in both trees measured 9 %
    apart. Remapping the tree to one prefix gives both the same layout.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / "perfbench" / "target"),
               RUSTFLAGS=f"--remap-path-prefix={tree}=/src")
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=tree, env=env, check=True)
    return env


def run(label, tree, env, command, seconds):
    """One perfbench run in `tree`; returns its `wall_s`, or None if the
    run failed (the reason is printed)."""
    args = command + ["--workload", WORKLOAD, "--seed", str(SEED),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        reason = f"perfbench exited {proc.returncode} without a result line"
    elif result.get("correct") is not True or result.get("failed", 1) > 0:
        reason = (f"correct={result.get('correct')} failed="
                  f"{result.get('failed')} of {result.get('attempted')}")
    else:
        wall_s = result["metrics"]["wall_s"]["value"]
        print(f"  {label:<6} wall_s {wall_s:.3f} s", flush=True)
        return wall_s
    # perfbench prints the first failure reasons to stderr.
    sys.stdout.write(proc.stderr)
    print(f"FAIL {label}: {reason}")
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    base_commit = sys.argv[1]
    head = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"],
                               stdout=subprocess.PIPE, text=True,
                               check=True).stdout.strip())
    spec = json.loads((head / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")

    base = head / ".bench_build" / "perf-gate" / "base"
    # Clear a worktree an interrupted run left behind.
    shutil.rmtree(base, ignore_errors=True)
    subprocess.run(["git", "worktree", "prune"], cwd=head, check=True)
    subprocess.run(["git", "worktree", "add", "--detach", str(base),
                    base_commit], cwd=head, check=True)
    try:
        trees = {"base": (base, build(base)), "change": (head, build(head))}
        walls = {"base": [], "change": []}
        print(f"{WORKLOAD}, seed {SEED}, {seconds} s per run, {PAIRS} pairs; "
              f"base {base_commit}")
        for pair in range(PAIRS):
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for label in order:
                tree, env = trees[label]
                wall_s = run(label, tree, env, spec["command"], seconds)
                if wall_s is None:
                    return 1
                walls[label].append(wall_s)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=head)

    base_median = statistics.median(walls["base"])
    change_median = statistics.median(walls["change"])
    ratio = change_median / base_median
    print(f"median wall_s: base {base_median:.3f} s, change "
          f"{change_median:.3f} s, ratio {ratio:.3f} (bound {1 + bound:.2f})")
    if ratio > 1 + bound:
        print(f"FAIL wall_s: the change is {100 * (ratio - 1):.1f} % slower "
              f"than the base, over the {100 * bound:.0f} % bound")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
