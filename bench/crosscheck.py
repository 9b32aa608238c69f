#!/usr/bin/env python3
"""One-off, untimed-by-the-benchmark check of two ROADMAP baseline rows.

    python3 bench/crosscheck.py

Times single twists with the surface pairing already built, the way the
ROADMAP table was measured, and says whether each time falls in the
ROADMAP's range:

* the non-simple curve ``a b a b^-1`` at genus 1 degree 8: 12.7-13.3 s;
* the simple curve ``a`` at genus <= 3, degree <= 8: at most 0.16 s.

Every twist uses k = 1/3, as the ROADMAP rows do.

It takes about half a minute and is not part of any benchmark run.
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from foxtwist.surfaces import CurveSpec, SurfaceSpec, generalized_dehn_twist, surface_pairing  # noqa: E402

ROWS = (
    # (label, genus, degree, curve, low, high)
    ("generic a b a b^-1", 1, 8, "a b a b^-1", 12.7, 13.3),
    ("simple a", 1, 8, "a", 0.0, 0.16),
    ("simple a", 2, 6, "a", 0.0, 0.16),
    ("simple a", 3, 5, "a", 0.0, 0.16),
)


def main():
    print(f"{'row':20s} {'genus':>5s} {'degree':>6s} {'pairing s':>10s} {'twist s':>9s}  "
          "ROADMAP range  in range")
    for label, genus, degree, curve, low, high in ROWS:
        spec = SurfaceSpec(genus, degree)
        start = time.perf_counter()
        surface_pairing(spec)
        built = time.perf_counter() - start
        start = time.perf_counter()
        generalized_dehn_twist(spec, CurveSpec(spec.parse_curve(curve), Fraction(1, 3)))
        elapsed = time.perf_counter() - start
        verdict = "yes" if low <= elapsed <= high else "no"
        print(f"{label:20s} {genus:5d} {degree:6d} {built:10.3f} {elapsed:9.3f}  "
              f"{low:g}-{high:g} s{'':6s} {verdict}")


if __name__ == "__main__":
    main()
