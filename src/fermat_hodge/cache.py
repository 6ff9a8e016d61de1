"""Persistent result cache with content digests and atomic writes.

Entries are JSON files keyed by kind (LEVEL, BASIS, STANDARD, REPORT)
and degree.  A sha256 digest over the canonical payload is verified on
read; a mismatch invalidates the entry and the caller recomputes.
Writes go to a temporary file renamed into place under an advisory
lock, so a crashed writer never leaves a torn entry.

The product caches results that cost more to compute than to read:
complete bases and complete condition reports.  LEVEL and STANDARD
entries are kept only because the benchmark's trace mode looks their
methods up by name, and for their tests; no command reads or writes
them (a level slice is recomputed faster than its entry is parsed).

This module owns the JSON layout of a basis and of a condition report:
``basis_to_dict`` and ``report_to_dict`` build the payloads that BASIS
and REPORT entries store and that the CLI prints for ``--format json``.
``get_basis`` and ``get_report`` return the stored payload, checked only
for its key, ``complete`` and the fields the CLI prints (else a miss),
so the CLI prints a hit without parsing or formatting a vector.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from .cycles import ConditionReport, StandardProvenance, StandardSet
from .hilbert import HilbertBasis
from .monoid import MonoidVector, format_vector, parse_vector

SCHEMA_VERSION = 1
ENV_CACHE_DIR = "FERMAT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "fermat-hodge"


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """File-backed store; one JSON entry per computed value."""

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def _path(self, kind: str, name: str) -> Path:
        return self.root / f"v{SCHEMA_VERSION}" / kind.lower() / f"{name}.json"

    def _read(self, kind: str, name: str):
        path = self._path(kind, name)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("schema_version") != SCHEMA_VERSION:
            return None
        if entry.get("kind") != kind:
            return None
        payload = entry.get("payload")
        if payload is None or entry.get("content_digest") != _digest(payload):
            return None
        return payload

    def _write(self, kind: str, name: str, m: int, payload) -> None:
        path = self._path(kind, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema_version": SCHEMA_VERSION,
            "kind": kind,
            "m": m,
            "payload": payload,
            "content_digest": _digest(payload),
        }
        lock_path = self.root / ".lock"
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "w") as lock:
            try:
                import fcntl

                fcntl.flock(lock, fcntl.LOCK_EX)
            except ImportError:  # non-posix; single writer assumed
                pass
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, sort_keys=True, indent=1)
                    handle.write("\n")
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def _load(self, kind: str, name: str, parse):
        """Parsed payload of an entry, or None when it is missing or malformed."""
        payload = self._read(kind, name)
        if payload is None:
            return None
        try:
            return parse(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    # -- LEVEL ---------------------------------------------------------------

    def get_level(self, m: int, y: int) -> list[MonoidVector] | None:
        def parse(payload):
            if payload["m"] != m or payload["y"] != y:
                return None
            return [parse_vector(s) for s in payload["vectors"]]

        return self._load("LEVEL", f"m{m}_y{y}", parse)

    def put_level(self, m: int, y: int, vectors: list[MonoidVector]) -> None:
        payload = {"m": m, "y": y, "vectors": [format_vector(v) for v in vectors]}
        self._write("LEVEL", f"m{m}_y{y}", m, payload)

    # -- BASIS (complete results only) ----------------------------------------

    def get_basis(self, m: int) -> dict | None:
        """The stored ``basis_to_dict`` payload of a complete basis, or None."""
        payload = self._read("BASIS", f"m{m}")
        if not (
            _complete(payload, m=m)
            and {"algorithm", "max_level_seen"} <= payload.keys()
            and _strings(payload.get("elements"))
        ):
            return None
        payload["schema_version"] = SCHEMA_VERSION  # old payloads lack it
        return payload

    def put_basis(self, basis: HilbertBasis) -> dict:
        """Store a complete basis; return its payload, stored or not."""
        payload = basis_to_dict(basis)
        if basis.complete:
            self._write("BASIS", f"m{basis.m}", basis.m, payload)
        return payload

    # -- STANDARD --------------------------------------------------------------

    def get_standard(self, m: int) -> StandardSet | None:
        def parse(payload):
            if payload["m"] != m:
                return None
            vectors = []
            provenance = {}
            for item in payload["vectors"]:
                v = parse_vector(item["vector"])
                vectors.append(v)
                provenance[v] = _provenance(item)
            return StandardSet(m=m, vectors=tuple(vectors), provenance=provenance)

        return self._load("STANDARD", f"m{m}", parse)

    def put_standard(self, std: StandardSet) -> None:
        payload = {
            "m": std.m,
            "vectors": [
                {
                    "vector": format_vector(v),
                    "p": std.provenance[v].p,
                    "i": std.provenance[v].i,
                    "doubled": std.provenance[v].doubled,
                }
                for v in std.vectors
            ],
        }
        self._write("STANDARD", f"m{std.m}", std.m, payload)

    # -- REPORT (complete results only) ------------------------------------------

    @staticmethod
    def _report_name(m: int, n: int | None, exclude_standard: bool) -> str:
        n_part = "all" if n is None else str(n)
        return f"m{m}_n{n_part}_excl{int(exclude_standard)}"

    def get_report(self, m: int, n: int | None, exclude_standard: bool) -> dict | None:
        """The stored ``report_to_dict`` payload of a complete report, or None."""
        payload = self._read("REPORT", self._report_name(m, n, exclude_standard))
        if not (
            _complete(payload, m=m, n=n, exclude_standard=exclude_standard)
            and {"verdict", "standard_set"} <= payload.keys()
            and isinstance(payload.get("counts"), dict)
            and isinstance(payload.get("outcomes"), list)
        ):
            return None
        return payload

    def put_report(self, report: ConditionReport) -> dict:
        """Store a complete report; return its payload, stored or not."""
        payload = report_to_dict(report)
        if report.complete:
            name = self._report_name(report.m, report.n, report.exclude_standard)
            self._write("REPORT", name, report.m, payload)
        return payload


# -- the shared JSON layouts ---------------------------------------------------


def basis_to_dict(basis: HilbertBasis) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "m": basis.m,
        "algorithm": basis.algorithm,
        "complete": basis.complete,
        "max_level_seen": basis.max_level_seen,
        "elements": [format_vector(v) for v in basis.elements],
    }


def basis_from_dict(payload: dict) -> HilbertBasis:
    """The basis of a payload, its elements in the stored (canonical) order."""
    return HilbertBasis(
        m=int(payload["m"]),
        elements=tuple(parse_vector(s) for s in payload["elements"]),
        complete=bool(payload["complete"]),
        max_level_seen=int(payload["max_level_seen"]),
        algorithm=str(payload["algorithm"]),
    )


def report_to_dict(report: ConditionReport) -> dict:
    outcomes = []
    for o in report.outcomes:
        item = {"element": format_vector(o.element), "kind": o.kind}
        if o.witness is not None:
            item["witness"] = {k: format_vector(getattr(o.witness, k)) for k in "bcd"}
        if o.provenance is not None:
            item["provenance"] = asdict(o.provenance)
        outcomes.append(item)
    return {
        "schema_version": SCHEMA_VERSION,
        "m": report.m,
        "n": report.n,
        "exclude_standard": report.exclude_standard,
        "verdict": report.verdict,
        "complete": report.complete,
        "counts": report.counts,
        "standard_set": report.standard_count,
        "outcomes": outcomes,
    }


def _complete(payload, **key) -> bool:
    """Whether ``payload`` is a complete result stored under ``key``."""
    return (
        isinstance(payload, dict)
        and payload.get("complete") is True
        and all(k in payload and payload[k] == v for k, v in key.items())
    )


def _strings(items) -> bool:
    return isinstance(items, list) and all(isinstance(s, str) for s in items)


def _provenance(item: dict) -> StandardProvenance:
    return StandardProvenance(
        p=int(item["p"]), i=int(item["i"]), doubled=bool(item["doubled"])
    )
