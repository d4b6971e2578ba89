"""Rebuild the stored full-SU(2) side minima of the bound-noisy panel.

    python3 perfbench/make_reference.py [--seed 99] [--out FILE]

Draws the panel's Haar states ``RngSeed(seed, i)``, i < 8, computes both
side minima under each panel channel by the multi-start search of
``reference.side_min_entropy`` (about 8 s), and writes them as JSON. When
the output file already holds values for the same seed, the largest change
is printed. The benchmark reads only the file for ``reference.PANEL_SEED``.
"""

import argparse
import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference as ref  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=ref.PANEL_SEED)
    p.add_argument("--out", default=os.path.join(os.path.dirname(
        os.path.abspath(__file__)), ref.PANEL_FILE))
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    minima = ref.panel_side_minima(args.seed)
    print(f"{len(ref.PANEL_CHANNELS) * ref.PANEL_STATES * 2} side minima in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    try:
        with open(args.out) as fh:
            old = json.load(fh)
    except (OSError, ValueError):
        old = None
    if (old and old.get("panel_seed") == args.seed
            and old["side_min_entropy"].keys() == minima.keys()):
        change = max(abs(a - b)
                     for ch, rows in minima.items()
                     for row, old_row in zip(rows, old["side_min_entropy"][ch])
                     for a, b in zip(row, old_row))
        print(f"largest change from the stored values: {change:.3e} bits",
              file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump({"panel_seed": args.seed, "states": ref.PANEL_STATES,
                   "side_min_entropy": minima}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
