#!/usr/bin/env python3
"""Print the coherence-band size histogram at eta = auto for each workload scale.

    python3 sweepbench/bands.py

In exact arithmetic every band at these scales is the same five-member cross;
the computed sizes show where rounding decides membership.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onebitcs import build_operator, coherence_bands, dft_dictionary, select_eta, zc_training  # noqa: E402

SCALES = {"desk": (16, 16, 20, 64), "full": (64, 64, 80, 256)}


def main() -> None:
    for name, (m, n, t, bins) in SCALES.items():
        op = build_operator(zc_training(n, t).S, dft_dictionary(m, bins), dft_dictionary(n, bins))
        eta = select_eta(op).eta
        sizes = Counter(len(band) for band in coherence_bands(op, eta).bands)
        histogram = ", ".join(f"size {k}: {v}" for k, v in sorted(sizes.items()))
        print(f"{name} (M={m}, B={bins}x{bins}): eta={eta!r}; {histogram}")


if __name__ == "__main__":
    main()
