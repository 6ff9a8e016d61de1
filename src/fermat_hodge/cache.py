"""Persistent result cache with digests over the stored bytes and atomic writes.

An entry is a text file keyed by kind (LEVEL, BASIS, STANDARD, REPORT)
and name, in three parts:

1. the hex sha256 of everything after this line;
2. a compact JSON meta object: ``kind``, the entry's key (``m``; ``y``
   for LEVEL; ``n`` and ``exclude_standard`` for REPORT), ``complete``
   for BASIS and REPORT, and ``phi`` (the largest element level) for
   BASIS;
3. the body: the payload as ``json.dumps(payload, sort_keys=True,
   indent=1)`` plus a newline, which is what ``--format json`` prints.

A read hashes the bytes after line 1 and parses only the meta line; an
entry whose digest, ``kind`` or key does not match the request, in
value and JSON type, is a miss, and the caller recomputes.  So the CLI
prints a JSON hit as the stored body and answers ``phi`` from the
meta, decoding and encoding nothing.  A write encodes the body once,
to a temporary file renamed into place under an advisory lock, so a
crashed writer never leaves a torn entry.  Entries of the earlier layout (one JSON object named
``<name>.json``, digest over the re-serialized payload) are not read;
their keys are recomputed and rewritten, removing the ``<name>.json`` file.

The product caches results that cost more to compute than to read:
complete bases and complete condition reports.  LEVEL and STANDARD
entries are kept only because the benchmark's trace mode looks their
methods up by name, and for their tests; no command reads or writes
them (a level slice is recomputed faster than its entry is parsed).

This module owns the JSON layout of a basis and of a condition report:
``basis_to_dict`` and ``report_to_dict`` build the payloads that BASIS
and REPORT entries store.  ``get_basis`` and ``get_report`` return an
``Entry``; with ``parse=True`` it carries the parsed payload, checked
for its key, ``complete`` and the fields the text printers read (else a
miss).

A BASIS or REPORT read, the cache hit of every command, imports
nothing beyond the standard library.  ``monoid``, ``hilbert`` and
``cycles`` (and with them numpy) are imported inside the functions that
format or parse vectors and build result objects: the writes,
``basis_from_dict`` and the LEVEL and STANDARD methods, which run only
where something is computed anyway; ``tempfile`` is imported by the
write alone.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

# Annotations name classes of ``cycles``, ``hilbert`` and ``monoid``, which
# are imported where they are used: a read needs none of them (see above).

SCHEMA_VERSION = 1
ENV_CACHE_DIR = "FERMAT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_DATA_HOME")
    base = Path(xdg) if xdg else Path.home() / ".local" / "share"
    return base / "fermat-hodge"


class Entry:
    """A result as the cache stores it: meta, ``--format json`` body and,
    when it was computed or parsed, the payload.  A plain class, so that
    a hit imports no ``dataclasses``."""

    __slots__ = ("meta", "body", "payload")

    def __init__(self, meta: dict, body: str, payload: dict | None = None):
        self.meta = meta
        self.body = body
        self.payload = payload

    @classmethod
    def of(cls, kind: str, m: int, payload: dict, **key) -> "Entry":
        body = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        return cls({"kind": kind, "m": m, **key}, body, payload)

    def to_bytes(self) -> bytes:
        head = json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
        text = f"{head}\n{self.body}".encode("utf-8")
        return hashlib.sha256(text).hexdigest().encode("ascii") + b"\n" + text


class ResultCache:
    """File-backed store; one entry file per computed value."""

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self._prefix = os.path.join(self.root, f"v{SCHEMA_VERSION}", "")

    def _path(self, kind: str, name: str) -> Path:
        """``<root>/v<SCHEMA_VERSION>/<kind>/<name>.entry``, built from one string."""
        return Path(f"{self._prefix}{kind.lower()}{os.sep}{name}.entry")

    def _read(self, kind: str, name: str, **key) -> Entry | None:
        """The entry stored as ``name`` if its digest verifies and its meta
        names ``kind`` and ``key``; else None."""
        try:
            data = self._path(kind, name).read_bytes()
        except OSError:
            return None
        digest, _, text = data.partition(b"\n")
        if digest != hashlib.sha256(text).hexdigest().encode("ascii"):
            return None
        head, _, body = text.partition(b"\n")
        try:
            meta = json.loads(head)
            body = body.decode("utf-8")
        except ValueError:
            return None
        if not _matches(meta, kind=kind, **key):
            return None
        return Entry(meta, body)

    def _write(self, kind: str, name: str, m: int, payload, **key) -> Entry:
        """Store ``payload`` under ``name`` with meta ``kind``, ``m`` and ``key``."""
        import tempfile  # with shutil and random, a cost only a write pays

        entry = Entry.of(kind, m, payload, **key)
        path = self._path(kind, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        lock_path = self.root / ".lock"
        with open(lock_path, "w") as lock:
            try:
                import fcntl

                fcntl.flock(lock, fcntl.LOCK_EX)
            except ImportError:  # non-posix; single writer assumed
                pass
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(entry.to_bytes())
                os.replace(tmp, path)
                path.with_suffix(".json").unlink(missing_ok=True)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        return entry

    def _put(self, kind: str, name: str, m: int, payload: dict, **key) -> Entry:
        """The entry of a result, written only when it is complete."""
        if key["complete"]:
            return self._write(kind, name, m, payload, **key)
        return Entry.of(kind, m, payload, **key)

    def _load(self, kind: str, name: str, parse, **key):
        """Parsed payload of an entry, or None when it is missing or malformed."""
        entry = self._read(kind, name, **key)
        if entry is None:
            return None
        try:
            return parse(json.loads(entry.body))
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    # -- LEVEL ---------------------------------------------------------------

    def get_level(self, m: int, y: int) -> list[MonoidVector] | None:
        from .monoid import parse_vector

        def parse(payload):
            return [parse_vector(s) for s in payload["vectors"]]

        return self._load("LEVEL", f"m{m}_y{y}", parse, m=m, y=y)

    def put_level(self, m: int, y: int, vectors: list[MonoidVector]) -> None:
        from .monoid import format_vector

        payload = {"m": m, "y": y, "vectors": [format_vector(v) for v in vectors]}
        self._write("LEVEL", f"m{m}_y{y}", m, payload, y=y)

    # -- BASIS (complete results only) ----------------------------------------

    def get_basis(self, m: int, parse: bool = False) -> Entry | None:
        """The entry of a complete basis of degree m, or None.

        With ``parse`` the entry carries its payload, checked for the
        fields the text form prints; without, the body is not decoded.
        """
        entry = self._read("BASIS", f"m{m}", m=m, complete=True)
        if entry is None or type(entry.meta.get("phi")) is not int:  # a bool is no phi
            return None
        if not parse:
            return entry
        return _parsed(
            entry,
            lambda p: _complete(p, m=m)
            and {"algorithm", "max_level_seen"} <= p.keys()
            and _strings(p.get("elements")),
        )

    def put_basis(self, basis: HilbertBasis) -> Entry:
        """The entry of a basis, written only when the basis is complete."""
        return self._put(
            "BASIS", f"m{basis.m}", basis.m, basis_to_dict(basis),
            complete=basis.complete, phi=basis.max_element_level,
        )

    # -- STANDARD --------------------------------------------------------------

    def get_standard(self, m: int) -> StandardSet | None:
        from .cycles import StandardProvenance, StandardSet
        from .monoid import parse_vector

        def parse(payload):
            vectors = []
            provenance = {}
            for item in payload["vectors"]:
                v = parse_vector(item["vector"])
                vectors.append(v)
                provenance[v] = StandardProvenance(
                    p=int(item["p"]), i=int(item["i"]), doubled=bool(item["doubled"])
                )
            return StandardSet(m=m, vectors=tuple(vectors), provenance=provenance)

        return self._load("STANDARD", f"m{m}", parse, m=m)

    def put_standard(self, std: StandardSet) -> None:
        from .monoid import format_vector

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

    def get_report(
        self, m: int, n: int | None, exclude_standard: bool, parse: bool = False
    ) -> Entry | None:
        """The entry of a complete report, or None; ``parse`` as in ``get_basis``."""
        key = {"m": m, "n": n, "exclude_standard": exclude_standard}
        name = self._report_name(m, n, exclude_standard)
        entry = self._read("REPORT", name, complete=True, **key)
        if entry is None or not parse:
            return entry
        return _parsed(
            entry,
            lambda p: _complete(p, **key)
            and {"verdict", "standard_set"} <= p.keys()
            and isinstance(p.get("counts"), dict)
            and isinstance(p.get("outcomes"), list),
        )

    def put_report(self, report: ConditionReport) -> Entry:
        """The entry of a report, written only when the report is complete."""
        return self._put(
            "REPORT",
            self._report_name(report.m, report.n, report.exclude_standard),
            report.m, report_to_dict(report),
            n=report.n, exclude_standard=report.exclude_standard,
            complete=report.complete,
        )


# -- the shared JSON layouts ---------------------------------------------------


def basis_to_dict(basis: HilbertBasis) -> dict:
    from .monoid import format_vector

    return {
        "schema_version": SCHEMA_VERSION,
        "m": basis.m,
        "algorithm": basis.algorithm,
        "complete": basis.complete,
        "max_level_seen": basis.max_level_seen,
        "elements": [format_vector(v) for v in basis.elements],
    }


def basis_from_dict(payload: dict) -> HilbertBasis:
    """The basis of a payload in the stored (canonical) order; a non-member is a ValueError."""
    from .hilbert import HilbertBasis
    from .monoid import is_member, parse_vector

    m = int(payload["m"])
    elements = tuple(parse_vector(s) for s in payload["elements"])
    if not all(is_member(v, m) for v in elements):
        raise ValueError(f"a stored basis element of m={m} is not a member")
    return HilbertBasis(
        m=m,
        elements=elements,
        complete=bool(payload["complete"]),
        max_level_seen=int(payload["max_level_seen"]),
        algorithm=str(payload["algorithm"]),
    )


def report_to_dict(report: ConditionReport) -> dict:
    """The payload of a report, formatted from its rows (``ConditionReport.walk``)."""
    from .monoid import format_rows

    outcomes = []
    for element, kind, parts, origin in report.walk(format_rows):
        item = {"element": element, "kind": kind}
        if parts is not None:
            item["witness"] = dict(zip("bcd", parts))
        if origin is not None:
            p, i, doubled = origin
            item["provenance"] = {"p": p, "i": i, "doubled": bool(doubled)}
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


def _matches(obj, **key) -> bool:
    """Whether ``obj`` is a dict holding each value of ``key`` with its JSON
    type: in Python 1 == True, but a stored 1 is not the key's true."""
    return isinstance(obj, dict) and all(
        k in obj and type(obj[k]) is type(v) and obj[k] == v for k, v in key.items()
    )


def _complete(payload, **key) -> bool:
    """Whether ``payload`` is a complete result stored under ``key``."""
    return _matches(payload, complete=True, **key)


def _parsed(entry: Entry, valid) -> Entry | None:
    """``entry`` with its parsed payload, or None if the payload fails ``valid``."""
    try:
        payload = json.loads(entry.body)
    except ValueError:
        return None
    return Entry(entry.meta, entry.body, payload) if valid(payload) else None


def _strings(items) -> bool:
    return isinstance(items, list) and all(isinstance(s, str) for s in items)
