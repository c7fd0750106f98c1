"""Write-optimized delta stores over the read-optimized main store.

The CODS storage of :mod:`repro.storage` is read-optimized: every column
is a set of WAH-compressed per-value bitmaps, rebuilt wholesale on any
change.  Following the main/delta architecture of read-optimized stores
(Krueger et al., "Fast Updates on Read-Optimized Databases Using
Multi-Core CPUs") with the versioned visibility argued for columnar
MVCC in Li et al., "Mainlining Databases", this package pairs each
table with an uncompressed write buffer:

* :class:`DeltaStore` — appended rows in plain column vectors plus
  epoch-versioned deletion maps over the main store and the buffer
  itself;
* :class:`MutableTable` — the DML facade: ``insert``/``update``/
  ``delete`` land in the delta, reads merge delta + main at query time;
* :class:`Snapshot` — an MVCC handle pinning one (generation, epoch)
  view so long scans never block writers or compaction;
* :class:`CompactionPolicy` / :class:`DeltaStats` /
  :class:`CompactionProgress` — when to fold the delta back into
  freshly WAH-encoded columns, all at once (``compact()``) or one
  budgeted column batch at a time (``compact_step()``).

The architecture (layer map, read path, compaction lifecycle) is
documented in ``docs/ARCHITECTURE.md``; the persisted ``.delta`` sidecar
format in ``docs/delta-format.md``.
"""

from repro.delta.mutable import MutableTable
from repro.delta.policy import (
    CompactionPolicy,
    CompactionProgress,
    DeltaStats,
)
from repro.delta.snapshot import Snapshot
from repro.delta.store import DeltaStore

__all__ = [
    "CompactionPolicy",
    "CompactionProgress",
    "DeltaStats",
    "DeltaStore",
    "MutableTable",
    "Snapshot",
]
