#!/usr/bin/env python3
"""Download the UCI HIGGS dataset's leading rows, split into train and validation.

The first --rows lines go to higgs_train.csv.gz and the next --rows lines to
higgs_valid.csv.gz in --out-dir; the rest of the ~2.6 GB file is never read.
The defaults give the reference experiment's two halves of 10,048 rows each.
--url also takes a local copy: --url file:///path/HIGGS.csv.gz.
"""

import argparse
import gzip
import itertools
import os
import urllib.request

URL = "https://archive.ics.uci.edu/ml/machine-learning-databases/00280/HIGGS.csv.gz"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data")
    parser.add_argument("--rows", type=int, default=10_048,
                        help="rows for each of train and validation")
    parser.add_argument("--url", default=URL)
    args = parser.parse_args()
    if args.rows < 1:
        raise SystemExit(f"error: --rows must be >= 1, got {args.rows}")

    print(f"fetching {args.url} ...")
    try:
        with urllib.request.urlopen(args.url) as response, gzip.open(response) as src:
            lines = list(itertools.islice(src, 2 * args.rows))
    except (OSError, EOFError) as err:
        raise SystemExit(f"error: download failed ({err}); fetch the file manually and "
                         f"split it with --url file:///path/HIGGS.csv.gz") from None
    # both halves or neither: the source is checked before a file is written
    if len(lines) < 2 * args.rows:
        raise SystemExit(f"error: need {2 * args.rows} rows, {args.url} has {len(lines)}")

    os.makedirs(args.out_dir, exist_ok=True)
    for name, part in (("higgs_train.csv.gz", lines[: args.rows]),
                       ("higgs_valid.csv.gz", lines[args.rows:])):
        path = os.path.join(args.out_dir, name)
        with gzip.open(path, "wb") as dst:
            dst.writelines(part)
        print(f"wrote {len(part)} rows to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
