#!/usr/bin/env python3
"""Verify the deterministic-channel schemes over the symmetric grid and
a batch of random 3-user gain matrices, writing both CSVs."""

import argparse
import sys

from cifc_cms import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-gain", type=int, default=4)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-prefix", default="ldc")
    args = ap.parse_args()

    rc = cli.main([
        "ldc-verify",
        "--nd", f"0:{args.max_gain}",
        "--ni", f"0:{args.max_gain}",
        "--k", "3,4,5",
        "--out", f"{args.out_prefix}_verify.csv",
    ])
    if rc:
        return rc
    return cli.main([
        "ldc-outer",
        "--samples", str(args.samples),
        "--max-gain", "3",
        "--seed", str(args.seed),
        "--out", f"{args.out_prefix}_outer.csv",
    ])


if __name__ == "__main__":
    sys.exit(main())
