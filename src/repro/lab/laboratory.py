"""The Laboratory: an on-disk home for runs, campaigns, and blobs.

One-shot CLI invocations leave nothing behind; a laboratory turns each
run into a durable, queryable artifact (the payu model: laboratory.py's
directory discipline, manifest.py's content hashing).  The layout::

    <root>/lab.json                     # marker, format tempest-lab-v1
    <root>/lab.lock                     # held only while a writer works
    <root>/runs/<run-id>/manifest.json  # tempest-manifest-v1 per run
    <root>/campaigns/<name>/campaign.json
    <root>/blobs/<aa>/<sha256-hex>      # content-addressed artifacts

Three rules make the store safe under concurrent readers and crashed
writers:

* **Content addressing** — a JSON blob is stored as its canonical
  compact encoding at ``blobs/<first-two-hex>/<digest>`` where the
  digest is :func:`repro.util.canonjson.content_digest` of the
  document, which equals the sha256 of the stored bytes.  Blobs are
  immutable and deduplicating by construction; drift is detectable by
  rehashing the file.
* **Atomic documents** — every mutable document (``manifest.json``,
  ``campaign.json``, ``lab.json``) is written via temp-file +
  ``os.replace``; readers never see a torn write, and a run directory
  without a ``manifest.json`` is by definition incomplete (that is how
  an interrupted sweep knows to redo a cell).
* **A writer lockfile** — mutating operations take ``lab.lock``
  (``O_CREAT|O_EXCL`` with the owner pid inside).  A lock whose owner
  is dead is stolen, so a SIGKILLed sweep never bricks the laboratory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.util.canonjson import canon_bytes, content_digest, dump_canonical
from repro.util.errors import LabError, LabLockError

__all__ = ["LAB_FORMAT", "LabLock", "Laboratory"]

#: format tag of the laboratory marker document
LAB_FORMAT = "tempest-lab-v1"


def _pid_alive(pid: int) -> bool:
    """Is a process with this pid still running (signal-0 probe)?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True   # exists, owned by someone else
    return True


class LabLock:
    """The laboratory's writer lock: exclusive-create with pid ownership.

    Re-entrant within one :class:`Laboratory` instance (nested ``with``
    blocks share the one OS-level lock), stolen when the recorded owner
    pid is dead — a crashed sweep must not require manual cleanup.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self._depth = 0

    def acquire(self) -> None:
        if self._depth:
            self._depth += 1
            return
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            owner = self._owner_pid()
            if owner is not None and _pid_alive(owner) and owner != os.getpid():
                raise LabLockError(
                    f"{self.path} is held by live pid {owner}; is another "
                    "sweep running against this laboratory?"
                )
            # Stale (owner dead or unreadable): steal by rewriting.
            fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC)
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        self._depth = 1

    def release(self) -> None:
        if self._depth == 0:
            return
        self._depth -= 1
        if self._depth == 0:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass   # stolen by a later starter after our owner check

    def _owner_pid(self) -> Optional[int]:
        try:
            return int(self.path.read_text().strip())
        except (OSError, ValueError):
            return None

    def __enter__(self) -> "LabLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> bool:
        self.release()
        return False


class Laboratory:
    """One experiment laboratory rooted at a directory."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.campaigns_dir = self.root / "campaigns"
        self.blobs_dir = self.root / "blobs"
        self.lock = LabLock(self.root / "lab.lock")

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def create(cls, root: Path) -> "Laboratory":
        """Initialize (or re-open) a laboratory at *root* — idempotent."""
        from repro import __version__

        lab = cls(root)
        marker = lab.root / "lab.json"
        if marker.exists():
            return cls.open(root)
        lab.root.mkdir(parents=True, exist_ok=True)
        for d in (lab.runs_dir, lab.campaigns_dir, lab.blobs_dir):
            d.mkdir(exist_ok=True)
        dump_canonical(marker, {
            "format": LAB_FORMAT,
            "tempest_version": __version__,
        })
        return lab

    @classmethod
    def open(cls, root: Path) -> "Laboratory":
        """Open an existing laboratory, validating its marker."""
        lab = cls(root)
        marker = lab.root / "lab.json"
        if not marker.is_file():
            raise LabError(
                f"{lab.root} is not a laboratory (no lab.json); "
                "run `tempest lab init` first"
            )
        try:
            doc = json.loads(marker.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LabError(f"{marker}: unreadable laboratory marker: {exc}")
        if doc.get("format") != LAB_FORMAT:
            raise LabError(
                f"{marker} declares format {doc.get('format')!r}, "
                f"expected {LAB_FORMAT!r}"
            )
        for d in (lab.runs_dir, lab.campaigns_dir, lab.blobs_dir):
            d.mkdir(exist_ok=True)
        return lab

    @staticmethod
    def is_lab_dir(path: Path) -> bool:
        """Does *path* look like a laboratory root (for CLI dispatch)?"""
        return (Path(path) / "lab.json").is_file()

    # ------------------------------------------------------------------
    # Content-addressed blob store

    def blob_path(self, digest: str) -> Path:
        if len(digest) != 64 or not all(c in "0123456789abcdef"
                                        for c in digest):
            raise LabError(f"malformed blob digest {digest!r}")
        return self.blobs_dir / digest[:2] / digest

    def put_json(self, obj) -> str:
        """Store a JSON document as a blob; returns its content digest.

        The stored bytes are the canonical compact encoding, so the
        blob's filename doubles as the sha256 of its file contents —
        dedup and bit-rot detection come free.
        """
        data = canon_bytes(obj)
        digest = content_digest(obj)
        path = self.blob_path(digest)
        if not path.exists():
            path.parent.mkdir(exist_ok=True)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        return digest

    def get_json(self, digest: str):
        """Load a blob back into a Python document."""
        path = self.blob_path(digest)
        if not path.is_file():
            raise LabError(f"blob {digest} missing from {self.blobs_dir}")
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LabError(f"blob {digest} unreadable: {exc}")

    def has_blob(self, digest: str) -> bool:
        return self.blob_path(digest).is_file()

    # ------------------------------------------------------------------
    # Runs

    def run_dir(self, run_id: str) -> Path:
        if not run_id or "/" in run_id or run_id.startswith("."):
            raise LabError(f"malformed run id {run_id!r}")
        return self.runs_dir / run_id

    def manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "manifest.json"

    def has_run(self, run_id: str) -> bool:
        """A run exists only once its manifest landed (the completion
        marker an interrupted sweep checks to skip finished cells)."""
        return self.manifest_path(run_id).is_file()

    def run_ids(self) -> list[str]:
        """Every completed run id, sorted."""
        if not self.runs_dir.is_dir():
            return []
        return sorted(
            p.name for p in self.runs_dir.iterdir()
            if (p / "manifest.json").is_file()
        )

    def read_manifest_doc(self, run_id: str) -> dict:
        """The raw manifest document of one run."""
        path = self.manifest_path(run_id)
        if not path.is_file():
            raise LabError(
                f"no run {run_id!r} in {self.root} "
                f"(have {self.run_ids()[:8]}...)"
                if self.run_ids() else
                f"no run {run_id!r} in {self.root} (laboratory is empty)"
            )
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LabError(f"{path}: unreadable manifest: {exc}")

    def write_manifest_doc(self, run_id: str, doc: dict) -> Path:
        """Atomically persist a run's manifest (its completion marker)."""
        rdir = self.run_dir(run_id)
        rdir.mkdir(parents=True, exist_ok=True)
        path = self.manifest_path(run_id)
        dump_canonical(path, doc)
        return path

    # ------------------------------------------------------------------
    # Campaigns (documents managed by repro.lab.store)

    def campaign_dir(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise LabError(f"malformed campaign name {name!r}")
        return self.campaigns_dir / name

    def campaign_names(self) -> list[str]:
        if not self.campaigns_dir.is_dir():
            return []
        return sorted(
            p.name for p in self.campaigns_dir.iterdir()
            if (p / "campaign.json").is_file()
        )
