"""Generate the wide-gaps input: a 10,000 x 60 Madelon-style dataset.

Features come in five groups of twelve. Group 1 is never missing; groups 2-5
each lose one disjoint block of rows (1500, 2000, 2500 and 3000 rows). The
five signature clusters therefore hold 10000, 8500, 8000, 7500 and 7000
complete rows, and 1000 rows (10%) are complete for every feature.

`gapnet synth` injects its gap pattern only at --n-samples 1000, so the
benchmark builds this input from the library's generator itself:

    PYTHONPATH=src python3 perfbench/widegaps.py --seed 1 --out wide.csv
"""

from __future__ import annotations

import argparse
import json

N_SAMPLES = 10_000
N_FEATURES = 60
GROUP = 12
GAP_ROWS = (1500, 2000, 2500, 3000)  # rows lost by groups 2, 3, 4 and 5


def blocks():
    """Feature partition implied by the gap blocks (0-based indices)."""
    return [list(range(k, k + GROUP)) for k in range(0, N_FEATURES, GROUP)]


def gap_blocks():
    """1-based inclusive ((row_lo, row_hi), (col_lo, col_hi)) blocks."""
    out, row = [], 1
    for k, size in enumerate(GAP_ROWS, start=1):
        out.append(((row, row + size - 1), (k * GROUP + 1, (k + 1) * GROUP)))
        row += size
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    # imported here so that run.py can read the layout above without gapnet
    from gapnet import dataset, synth

    # per 6 columns: 3 informative, 2 redundant, 1 noise
    cols = range(1, N_FEATURES + 1)
    cfg = synth.MadelonConfig(
        n_samples=N_SAMPLES,
        n_features=N_FEATURES,
        informative_indices=tuple(j for j in cols if j % 6 in (1, 2, 4)),
        redundant_indices=tuple(j for j in cols if j % 6 in (3, 5)),
        noise_indices=tuple(j for j in cols if j % 6 == 0),
        seed=args.seed,
    )
    ds = synth.generate_madelon(cfg)
    ds = synth.inject_gaps(ds, synth.GapPattern(blocks=gap_blocks()))
    dataset.save_csv(ds, args.out)
    print(json.dumps({"path": args.out, "complete_rows": int(ds.complete_rows().size)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
