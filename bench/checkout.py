"""Where the benchmark finds the code under test and its reference data.

The benchmark always measures the pumpslab source of the checkout it sits
in (``<checkout>/src``), never an installed copy, and writes only inside
that checkout.

A workload's reference pool is two files under ``reference/``:
``<workload>.gz`` holds one gzip member per request, each the JSON object
``{"spec": ..., "table": ...}``, and ``<workload>.index.json`` holds the
byte offset, length and group of every member.  A run keeps only the index
in memory and reads one entry at a time, so the pool adds next to nothing
to the measured process's peak memory.
"""
import gzip
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE_INIT = os.path.join(SRC, "pumpslab", "__init__.py")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")


class MissingSource(RuntimeError):
    """The checkout holds no pumpslab source to measure."""


def require_source():
    if not os.path.isfile(PACKAGE_INIT):
        raise MissingSource(f"no pumpslab package under {SRC}")


def use_checkout_source():
    """Put the checkout's src/ first on sys.path and import pumpslab from it."""
    require_source()
    sys.path.insert(0, SRC)
    import pumpslab

    if os.path.dirname(os.path.abspath(pumpslab.__file__)) != os.path.dirname(PACKAGE_INIT):
        raise MissingSource(f"pumpslab imported from {pumpslab.__file__}, not {SRC}")
    return pumpslab


def _paths(workload):
    base = os.path.join(REFERENCE_DIR, workload)
    return base + ".gz", base + ".index.json"


class ReferencePool:
    """Read-only access to one workload's committed requests and outputs."""

    def __init__(self, workload):
        data_path, index_path = _paths(workload)
        with open(index_path, encoding="utf-8") as fh:
            index = json.load(fh)
        self.meta = index["meta"]
        self.members = index["members"]  # [offset, length, group] per request
        self._fh = open(data_path, "rb")

    def __len__(self):
        return len(self.members)

    def groups(self):
        return [group for _, _, group in self.members]

    def entry(self, i):
        """Request i as {"spec": ..., "table": ...}."""
        offset, length, _ = self.members[i]
        self._fh.seek(offset)
        return json.loads(gzip.decompress(self._fh.read(length)))

    def close(self):
        self._fh.close()


def save_reference(workload, meta, entries, group_of):
    """Write a pool: entries are {"spec", "table"} dicts, in request order."""
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    data_path, index_path = _paths(workload)
    members = []
    with open(data_path, "wb") as raw:
        for entry in entries:
            text = json.dumps(entry, separators=(",", ":")).encode("utf-8")
            # mtime=0 keeps the file byte-identical when the contents are
            member = gzip.compress(text, compresslevel=9, mtime=0)
            members.append([raw.tell(), len(member), group_of(entry["spec"])])
            raw.write(member)
    with open(index_path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "members": members}, fh, separators=(",", ":"))
        fh.write("\n")
