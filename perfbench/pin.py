"""Write perfbench/reference.json: the values the benchmark checks against.

The phi values are the published table (degrees 2..47).  Element
counts and digests, fourfold outcomes and CLI response digests are
computed here and must only be re-pinned when the program's answers
are meant to change.  Every computed phi is checked against the table.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

PHI = {
    2: 1, 3: 1, 4: 1, 5: 1, 6: 3, 7: 1, 8: 3, 9: 2, 10: 3, 11: 1,
    12: 5, 13: 1, 14: 3, 15: 3, 16: 5, 17: 1, 18: 7, 19: 1,
    20: 5, 21: 3, 22: 7, 23: 1, 24: 9, 25: 3, 26: 7, 27: 5,
    28: 7, 29: 1, 30: 9, 31: 1, 32: 9, 33: 5, 34: 5,
    35: 8, 36: 13, 37: 1, 38: 11, 39: 5, 40: 17, 41: 1, 42: 11, 43: 1,
    44: 17, 45: 11, 46: 11, 47: 1,
}
COUNTEREXAMPLE_33 = ",".join(
    "1" if i in (7, 10, 13, 19, 22, 28) else "0" for i in range(1, 33)
) + ";3"


def main() -> int:
    from fermat_hodge import check_condition, hilbert_basis
    import fermat_hodge.cli as cli

    ref = {
        "phi": {str(m): v for m, v in PHI.items()},
        "counterexample_33": COUNTEREXAMPLE_33,
        "basis": {},
        "fourfold": {},
        "cli": {},
    }
    for m in sorted(set(wl.BASIS_DEGREES)):
        basis = hilbert_basis(m)
        assert basis.complete and basis.max_element_level == PHI[m], m
        count, dig = wl.elements_digest(basis)
        ref["basis"][str(m)] = {"count": count, "digest": dig}
    for m in sorted(set(wl.COPRIME6_DEGREES + wl.COMPOSITE_DEGREES)):
        report = check_condition(m, n=4, exclude_standard=True)
        assert report.complete, m
        ref["fourfold"][str(m)] = wl.fourfold_summary(report)
    assert COUNTEREXAMPLE_33 in ref["fourfold"]["33"]["fails"]

    # cold response from an empty cache, then a warm one that must match
    requests = wl.HOT_REQUESTS + wl.COLD_REQUESTS + wl.UNCACHED_REQUESTS
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=HERE.parent))
    try:
        for argv in dict.fromkeys(requests):
            cache_dir = scratch / str(len(ref["cli"]))
            code, cold = wl.call_cli(cli, argv, cache_dir)
            warm_code, warm = wl.call_cli(cli, argv, cache_dir)
            assert (code, cold) == (warm_code, warm), argv
            ref["cli"][wl.request_key(argv)] = {"code": code, "digest": wl.digest(cold)}
    finally:
        shutil.rmtree(scratch)

    out = HERE / "reference.json"
    out.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
