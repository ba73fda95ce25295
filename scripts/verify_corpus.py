"""Verify every reference file in data/ and print one verdict line each.

Exits nonzero if any file deviates from its expected verdict, so this doubles
as a corpus regression check.
"""

from __future__ import annotations

import sys
from pathlib import Path

from scavenger.cli import dispatch

EXPECTED = {
    "t22_vertices.txt": 0,
    "t22_seed.txt": 1,  # a 5-cycle is 3-colorable
    "t22_direct.cert": 0,
    "t34_order25.cert": 0,
    "t34_order25_uncorrected.cert": 1,
    "t66_order25.cert": 0,
    "t66_order25_uncorrected.cert": 1,
    "t30_device.cert": 2,
}


DATA = Path(__file__).resolve().parent.parent / "data"


def main(data: Path = DATA) -> int:
    failures = 0
    for name, want in EXPECTED.items():
        code = dispatch(["verify", str(data / name)])
        status = "ok" if code == want else f"UNEXPECTED (want exit {want})"
        print(f"== {name}: exit {code} {status}")
        failures += code != want
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
