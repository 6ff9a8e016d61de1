"""The benchmark's workloads: fixed inputs, one timed call per item, checks.

Every workload is a closed loop with one caller: the next item starts
only after the previous one has returned.  The seed only fixes the
order of a pass; the multiset of items is the same for every seed, so
that percentiles stay inside the same class of inputs from run to run.

Library workloads call the package directly and time one degree per
item.  ``cli-cache`` calls ``fermat_hodge.cli.main`` in-process with
stdout captured and times one request per item.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

# Degrees per pass.  A run needs at least 100 per-degree latencies (ten
# beyond the 90th percentile) within its time, so a pass holds 14 or 15
# degrees and stays near 2-4 s on a 2-core x86 host.  Each set reaches
# into the paper's upper range (the basis of 34, top of the certified phi
# table; the fourfolds of 47, coprime to 6, and of 24) and fills the rest
# with lighter degrees.  The heaviest degrees (bases of 24, 38 and 46;
# fourfolds of 38, 39 and 53..61) would each take several seconds and
# leave too few samples in a run.  Per-degree latencies vary by about a
# tenth from pass to pass, so each percentile is placed where neighbouring
# degrees take about the same time and not on a steep step between them.
# With the 15 bases the median lies in the middle of the 8th fastest
# degree's samples (39, between 33 and 22) and the 90th percentile in the
# middle of the 14th's (32).  With the 14 fourfold degrees the
# median lies between the 7th and 8th fastest, which take about the same
# time (25 and 29; 18 and 22), and the 90th percentile in the middle of
# the 13th's (43; 32).
BASIS_DEGREES = (12, 14, 15, 16, 18, 20, 21, 22, 26, 27, 28, 32, 33, 34, 39)
COPRIME6_DEGREES = (7, 11, 13, 17, 19, 23, 25, 29, 31, 35, 37, 41, 43, 47)
COMPOSITE_DEGREES = (10, 12, 14, 15, 16, 18, 20, 21, 22, 24, 26, 27, 32, 33)

# cli-cache request classes.  HOT keys are answered from the pre-filled
# cache; COLD keys are absent from it, so each computes and writes once
# per pass; UNCACHED requests compute on every call.  verify-33 reads
# the degree-33 level slices that the pre-fill leaves in the cache.
HOT_REQUESTS = (
    ("phi", "--m", "20"),
    ("phi", "--m", "22"),
    ("phi", "--m", "26"),
    ("phi", "--m", "34"),
    ("phi", "--m", "35"),
    ("basis", "--m", "22", "--format", "json"),
    ("basis", "--m", "26", "--format", "json"),
    ("basis", "--m", "34", "--format", "json"),
    ("phi-table", "--from", "2", "--to", "22"),
    ("check", "--m", "21", "--n", "4", "--exclude-standard"),
    ("check", "--m", "33", "--n", "4", "--exclude-standard"),
    ("check", "--m", "21"),
)
COLD_REQUESTS = (
    ("phi", "--m", "33"),
    ("basis", "--m", "27", "--format", "json"),
    ("check", "--m", "14", "--n", "4", "--exclude-standard"),
    ("check", "--m", "15", "--n", "4", "--exclude-standard"),
    ("check", "--m", "16", "--n", "4", "--exclude-standard"),
    ("check", "--m", "27", "--n", "4", "--exclude-standard"),
    ("check", "--m", "20", "--n", "4"),
    ("check", "--m", "12"),
    ("check", "--m", "14"),
    ("check", "--m", "15"),
)
UNCACHED_REQUESTS = (
    ("hodge", "--m", "33", "--n", "4"),
    ("hodge", "--m", "28", "--n", "4"),
    ("hodge", "--m", "21", "--n", "4"),
    ("hodge", "--m", "15", "--n", "6"),
    ("hodge", "--m", "12", "--n", "4"),
    ("hodge", "--m", "9", "--n", "6"),
    ("verdict", "--m", "33", "--n", "4"),
    ("verdict", "--m", "26", "--n", "4"),
    ("verdict", "--m", "22", "--n", "4"),
    ("verdict", "--m", "25", "--n", "6"),
    ("verdict", "--m", "21", "--n", "6"),
    ("verdict", "--m", "49", "--n", "4"),
    ("verdict", "--m", "13", "--n", "8"),
    ("newton", "--d", "3", "--trials", "20000", "--seed", "7"),
    ("newton", "--d", "2", "--trials", "1000", "--seed", "7"),
    ("newton", "--d", "1", "--trials", "500", "--seed", "3"),
    ("verify-33",),
    ("verify-33",),
)
# Hot keys repeat so that hot reads are 72 of the 100 requests of a
# pass and the median falls among them.  Eight requests take over 100 ms
# and the next six (verify-33, hodge 21 and 15, cold check 12 and phi 33)
# take 45-60 ms, so the 90th percentile, at the 11th slowest request,
# falls inside that flat group rather than on a steep edge.
HOT_REPEAT = 6

# Requests whose responses seed the pre-filled cache besides HOT_REQUESTS.
PREFILL_EXTRA = (("verify-33",),)


def request_key(argv) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def elements_digest(basis) -> tuple[int, str]:
    """Count and sha256 of the basis elements, sorted by (level, x)."""
    from fermat_hodge import format_vector

    ordered = sorted(basis.elements, key=lambda v: (v.y, v.x))
    return len(ordered), digest("\n".join(format_vector(v) for v in ordered))


def fourfold_summary(report) -> dict:
    """The pinned fields of a fourfold condition report."""
    from fermat_hodge import format_vector

    fails = sorted(
        format_vector(o.element) for o in report.outcomes if o.kind == "FAIL"
    )
    return {"verdict": report.verdict, "counts": report.counts, "fails": fails}


def call_cli(cli, argv, cache_dir) -> tuple[int, str]:
    """One in-process CLI request; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv) + ["--cache-dir", str(cache_dir)])
    return code, out.getvalue()


def load_reference() -> dict:
    path = Path(__file__).with_name("reference.json")
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Item:
    key: object  # a degree, or a CLI argv tuple
    kind: str  # workload-specific class: "degree", "hot", "cold", "uncached"


class Workload:
    """Base: fixed inputs, a prepare step timed as set-up, per-item checks."""

    name = ""
    import_module = "fermat_hodge"  # what a caller of this workload imports

    def __init__(self, reference: dict, scratch: Path):
        self.reference = reference
        self.scratch = scratch

    def prepare(self) -> None:
        """Warm-up and any pre-fill; repeated to measure set-up time."""

    def items(self, seed: int) -> list[Item]:
        raise NotImplementedError

    def begin_pass(self) -> None:
        """Untimed state reset before a pass."""

    def end_pass(self) -> None:
        """Untimed clean-up after a pass."""

    def run(self, item: Item, budget=None):
        raise NotImplementedError

    def check(self, item: Item, result) -> str | None:
        """None when the result is correct, else the reason it is not."""
        raise NotImplementedError

    def counts(self, result) -> dict:
        """Per-item counts that only the caller can see, for the traced run."""
        return {}

    def close(self) -> None:
        """Remove everything the workload wrote."""


def _shuffled(keys, seed: int, kind: str) -> list[Item]:
    items = [Item(k, kind) for k in keys]
    random.Random(seed).shuffle(items)
    return items


class BasisCompletion(Workload):
    name = "basis-completion"

    def prepare(self) -> None:
        from fermat_hodge import hilbert_basis

        hilbert_basis(min(BASIS_DEGREES))

    def items(self, seed):
        return _shuffled(BASIS_DEGREES, seed, "degree")

    def run(self, item, budget=None):
        from fermat_hodge import hilbert_basis

        return hilbert_basis(item.key, algorithm="completion", budget=budget)

    def check(self, item, basis):
        m = item.key
        ref = self.reference["basis"][str(m)]
        if not basis.complete:
            return f"m={m}: basis not certified complete"
        if basis.max_element_level != self.reference["phi"][str(m)]:
            return f"m={m}: phi {basis.max_element_level} differs from the table"
        count, dig = elements_digest(basis)
        if count != ref["count"] or dig != ref["digest"]:
            return f"m={m}: {count} elements differ from the pinned basis"
        return None


class Fourfold(Workload):
    degrees: tuple[int, ...] = ()

    def prepare(self) -> None:
        from fermat_hodge import check_condition

        check_condition(min(self.degrees), n=4, exclude_standard=True)

    def items(self, seed):
        return _shuffled(self.degrees, seed, "degree")

    def run(self, item, budget=None):
        from fermat_hodge import check_condition

        return check_condition(item.key, n=4, exclude_standard=True, budget=budget)

    def check(self, item, report):
        m = item.key
        if not report.complete:
            return f"m={m}: report incomplete"
        got = fourfold_summary(report)
        if got != self.reference["fourfold"][str(m)]:
            return f"m={m}: {got['counts']} verdict={got['verdict']} differs from pin"
        if m == 33 and self.reference["counterexample_33"] not in got["fails"]:
            return "m=33: the degree-33 counterexample is not among the FAILs"
        return None


class FourfoldCoprime6(Fourfold):
    name = "fourfold-coprime6"
    degrees = COPRIME6_DEGREES


class FourfoldComposite(Fourfold):
    name = "fourfold-composite"
    degrees = COMPOSITE_DEGREES


class CliCache(Workload):
    name = "cli-cache"
    import_module = "fermat_hodge.cli"

    def __init__(self, reference, scratch):
        super().__init__(reference, scratch)
        import fermat_hodge.cli as cli

        self.cli = cli
        self.prefilled: Path | None = None
        self.pass_dir: Path | None = None
        self.cold: dict[str, str] = {}

    def prepare(self) -> None:
        """Fill a fresh cache directory; keep the cold responses."""
        fresh = Path(tempfile.mkdtemp(prefix="prefill-", dir=self.scratch))
        cold = {}
        for argv in HOT_REQUESTS + PREFILL_EXTRA:
            code, out = call_cli(self.cli, argv, fresh)
            if code != 0:
                raise RuntimeError(f"pre-fill request {request_key(argv)} exited {code}")
            cold[request_key(argv)] = out
        if self.prefilled is not None:
            if cold != self.cold:
                raise RuntimeError("pre-fill responses differ between set-ups")
            shutil.rmtree(self.prefilled)
        self.prefilled, self.cold = fresh, cold

    def items(self, seed):
        items = [Item(a, "hot") for a in HOT_REQUESTS * HOT_REPEAT]
        items += [Item(a, "cold") for a in COLD_REQUESTS]
        items += [Item(a, "uncached") for a in UNCACHED_REQUESTS]
        random.Random(seed).shuffle(items)
        return items

    def begin_pass(self) -> None:
        self.pass_dir = self.scratch / "pass-cache"
        if self.pass_dir.exists():
            shutil.rmtree(self.pass_dir)
        shutil.copytree(self.prefilled, self.pass_dir)

    def end_pass(self) -> None:
        shutil.rmtree(self.pass_dir)

    def run(self, item, budget=None):
        return call_cli(self.cli, item.key, self.pass_dir)

    def check(self, item, result):
        code, out = result
        key = request_key(item.key)
        ref = self.reference["cli"][key]
        if code != ref["code"]:
            return f"{key}: exit code {code}, expected {ref['code']}"
        if digest(out) != ref["digest"]:
            return f"{key}: response differs from the pinned response"
        if item.kind == "hot" and out != self.cold[key]:
            return f"{key}: warm response differs from the cold one"
        return None

    def counts(self, result) -> dict:
        code, out = result
        return {"cli.out_bytes": len(out.encode("utf-8")), "cli.exit_nonzero": code != 0}

    def close(self) -> None:
        for path in (self.prefilled, self.pass_dir):
            if path is not None and path.exists():
                shutil.rmtree(path)


WORKLOADS = {
    w.name: w for w in (BasisCompletion, FourfoldCoprime6, FourfoldComposite, CliCache)
}
