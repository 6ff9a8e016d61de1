"""Read and forge result-cache entries in their on-disk layouts.

The current layout is three parts: the hex sha256 of everything after
the first line, a compact JSON meta line, and the body, which is the
``--format json`` text of the payload.  The helpers build the bytes
themselves rather than through ``fermat_hodge.cache``, so the tests pin
the layout and can forge digest-valid entries the cache never writes.
"""

import hashlib
import json


def read_entry(cache, kind, name):
    """The (meta, body) of a stored entry, whose digest must verify."""
    digest, text = cache._path(kind, name).read_bytes().split(b"\n", 1)
    assert digest == hashlib.sha256(text).hexdigest().encode("ascii")
    head, body = text.split(b"\n", 1)
    return json.loads(head), body.decode("utf-8")


def forge_entry(cache, kind, name, meta, payload):
    """Store meta and payload under name in the current layout, digest valid."""
    head = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    body = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    text = f"{head}\n{body}".encode("utf-8")
    digest = hashlib.sha256(text).hexdigest().encode("ascii")
    _store(cache, kind, name, digest + b"\n" + text)


def forge_old_entry(cache, kind, name, m, payload):
    """Store payload under name in the earlier layout: one JSON object with a
    digest over the compact payload."""
    compact = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    entry = {
        "schema_version": 1,
        "kind": kind,
        "m": m,
        "payload": payload,
        "content_digest": hashlib.sha256(compact.encode("utf-8")).hexdigest(),
    }
    data = json.dumps(entry, sort_keys=True, indent=1).encode("utf-8")
    _store(cache, kind, name, data)


def _store(cache, kind, name, data):
    path = cache._path(kind, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
