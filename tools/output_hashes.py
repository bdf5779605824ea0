"""Print the sha256 of every file a fixed set of gapnet commands writes.

    python3 tools/output_hashes.py

writes PLAN to plan.json, then runs the commands in COMMANDS with the code
of the checkout this file sits in, in a new temporary directory, with one
BLAS thread. Each command that reads a CSV gets `--missing-token ""`. The
commands share a CSV cache (XDG_CACHE_HOME) in the same temporary
directory: the first read of each CSV parses it, the later reads load the
cached cells, and no cache entry of the user's is read. It then prints one
`sha256  file` line per output file, in path order. manifest.json is hashed
without its timestamp line, the one output that differs between two runs.

Two checkouts wrote the same bytes when their printouts are equal. To get
the printout of another commit, copy this file into a checkout of it and
run it there.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a hand-written plan for madelon.csv: two clusters named by the user, not
# cluster_N, listed against feature order, with x25 left out
PLAN = {
    "late": [f"x{j}" for j in range(26, 41)],
    "early": [f"x{j}" for j in range(1, 25)],
}

# (arguments to gapnet or to a script of the checkout, reads a CSV)
COMMANDS = [
    (["synth", "--paper-madelon", "--seed", "1", "--out", "madelon.csv"], False),
    # 120,040 cells, far above dataset.FORK_CELLS: written on forked ranges
    (["synth", "--n-samples", "3001", "--seed", "2", "--out", "synth-3001.csv"], False),
    (["clusters", "madelon.csv", "--out", "clusters.json"], True),
    (["train", "madelon.csv", "--epochs", "60", "--seed", "0", "--out", "train"], True),
    # one model of the run alone
    (["train", "madelon.csv", "--epochs", "60", "--seed", "0", "--model", "vanilla",
      "--out", "train-vanilla"], True),
    (["train", "madelon.csv", "--epochs", "60", "--seed", "0", "--model", "gapnet",
      "--out", "train-gapnet"], True),
    # the full-batch stage II over unfrozen bodies, which caches no body output
    (["train", "madelon.csv", "--epochs", "30", "--seed", "2", "--unfreeze-bodies",
      "--out", "train-unfrozen"], True),
    # the unstratified split draw, with no other flag changed
    (["train", "madelon.csv", "--epochs", "30", "--seed", "4", "--no-stratify",
      "--out", "train-unstratified"], True),
    (["importance", "train/vanilla.model.json", "madelon.csv", "--repeats", "2",
      "--out", "train/vanilla.importance.json"], True),
    (["importance", "train/gapnet.model.json", "madelon.csv", "--repeats", "2",
      "--out", "train/gapnet.importance.json"], True),
    (["benchmark", "madelon.csv", "--runs", "3", "--epochs", "40", "--seed", "5",
      "--jobs", "2", "--out", "benchmark"], True),
    # three ranges of runs, two of them on forked children where 3 CPUs are usable
    (["benchmark", "madelon.csv", "--runs", "3", "--epochs", "40", "--seed", "5",
      "--jobs", "3", "--out", "benchmark-3"], True),
    (["benchmark", "madelon.csv", "--runs", "2", "--epochs", "30", "--seed", "3",
      "--no-normalize", "--no-stratify", "--test-fraction", "0.3", "--batch-size", "50",
      "--unfreeze-bodies", "--out", "benchmark-minibatch"], True),
    # the plan's cluster names in the model file, report.json and roc.csv
    (["train", "madelon.csv", "--plan", "plan.json", "--epochs", "30", "--seed", "1",
      "--out", "train-plan"], True),
    (["benchmark", "madelon.csv", "--plan", "plan.json", "--runs", "2", "--epochs", "30",
      "--seed", "6", "--out", "benchmark-plan"], True),
    (["perfbench/widegaps.py", "--seed", "1", "--out", "wide.csv"], False),
    (["clusters", "wide.csv", "--out", "wide-clusters.json"], True),
    (["train", "wide.csv", "--epochs", "3", "--out", "wide-train"], True),
    # tiled stage-I fits in minibatches, and inside a benchmark run
    (["train", "wide.csv", "--epochs", "2", "--batch-size", "3000", "--seed", "1",
      "--out", "wide-minibatch"], True),
    (["benchmark", "wide.csv", "--runs", "2", "--epochs", "2", "--jobs", "1",
      "--out", "wide-benchmark"], True),
]

_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(args, reads_csv, cwd, cache):
    """Run one command in cwd with its CSV cache under cache; exit with its
    output when it fails."""
    if args[0].endswith(".py"):
        command = [sys.executable, str(ROOT / args[0]), *args[1:]]
    else:
        command = [sys.executable, "-m", "gapnet.cli", *args]
    if reads_csv:
        command += ["--missing-token", ""]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "XDG_CACHE_HOME": str(cache)}
    env.update(dict.fromkeys(_ONE_THREAD, "1"))
    done = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def digest(path):
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = b"".join(
            line for line in data.splitlines(keepends=True)
            if not line.lstrip().startswith(b'"timestamp"')
        )
    return hashlib.sha256(data).hexdigest()


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out, cache = Path(tmp, "out"), Path(tmp, "cache")
        out.mkdir()
        (out / "plan.json").write_text(json.dumps(PLAN, indent=2) + "\n", encoding="utf-8")
        for args, reads_csv in COMMANDS:
            run(args, reads_csv, out, cache)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
