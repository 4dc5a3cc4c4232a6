"""Versioned, epoch-stamped shard maps for elastic cluster membership.

A fixed-size cluster routes with one :class:`~repro.engine.partition.
ShardPartition` for its whole life.  Elastic membership replaces that
single table with a **shard map**: an immutable, versioned value the
router consults *per frame*, made of

* a status per shard id (``active`` / ``joining`` / ``draining``) — ids
  are never reused, so journals and snapshot directories stay unambiguous
  across grow/drain cycles; and
* an ordered list of **routing entries**, each an epoch cut plus the
  partition that owns every frame from that cut on.  A frame tagged with
  epoch ``e`` is routed by the entry with the largest ``cut_epoch <= e``
  (the first entry's cut is ``None`` = "since forever").

This encoding is what makes membership changes *exact* rather than
approximate: because every aggregator's merge is a commutative integer
sum, placement is advisory — correctness needs only that no report is
lost or double-counted.  So a **grow** appends one entry cutting at the
first unseen epoch (the new shard takes only new-epoch traffic; nothing
moves), and a **drain** rewrites the drained id out of every entry in one
step (new frames for its keyspace go to the merge target, and its already
absorbed state is handed off wholesale).  Either way the final merged sum
is bit-identical to a single offline aggregator — the property pinned per
protocol by ``tests/test_properties.py``.

Maps persist through the checksummed snapshot container
(:mod:`repro.server.snapshot`), so the on-disk ``shardmap.json`` next to
the journals is atomic, fsynced, and refuses to load corrupted: it is the
**commit point** of every membership transition.  A crash before the map
write rolls the transition back; a crash after it rolls forward (see
``ClusterRouter.recover_membership``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.partition import ShardPartition
from repro.server.snapshot import read_snapshot, write_snapshot

__all__ = ["RoutingEntry", "ShardMap", "ShardMapError", "ShardMapStore",
           "SHARD_STATUSES"]

#: legal shard states: ``joining`` shards are spawned but own no epochs
#: yet; ``draining`` shards own no *new* epochs and are awaiting handoff
SHARD_STATUSES = ("active", "joining", "draining")

_FORMAT = "repro-shardmap"
_VERSION = 1


class ShardMapError(ValueError):
    """An inconsistent shard map: bad transition, unknown shard id, or an
    on-disk map that fails structural validation."""


@dataclass(frozen=True)
class RoutingEntry:
    """One epoch range's owner table: every frame with epoch >=
    ``cut_epoch`` (until the next entry's cut) hashes through
    ``partition`` into ``shard_ids``."""

    cut_epoch: Optional[int]
    shard_ids: Tuple[int, ...]
    partition: ShardPartition

    def __post_init__(self) -> None:
        if not self.shard_ids:
            raise ShardMapError("routing entry must own at least one shard")
        if self.partition.num_shards != len(self.shard_ids):
            raise ShardMapError(
                f"routing entry partition spans {self.partition.num_shards} "
                f"slots but names {len(self.shard_ids)} shard ids")

    def shard_of(self, route_key: int) -> int:
        return self.shard_ids[self.partition.shard_of(route_key)]

    def to_dict(self) -> Dict[str, object]:
        return {"cut_epoch": self.cut_epoch,
                "shard_ids": list(self.shard_ids),
                "partition": self.partition.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoutingEntry":
        cut = data["cut_epoch"]
        return cls(cut_epoch=None if cut is None else int(cut),
                   shard_ids=tuple(int(i) for i in data["shard_ids"]),
                   partition=ShardPartition.from_dict(data["partition"]))


@dataclass(frozen=True)
class ShardMap:
    """An immutable membership snapshot; transitions return new versions."""

    version: int
    statuses: Tuple[Tuple[int, str], ...]  # (shard_id, status), ascending
    entries: Tuple[RoutingEntry, ...]      # ascending cut; entries[0] is None
    retired: Tuple[int, ...] = ()          # drained-and-forgotten ids

    def __post_init__(self) -> None:
        ids = [shard_id for shard_id, _ in self.statuses]
        if ids != sorted(set(ids)):
            raise ShardMapError(f"duplicate or unsorted shard ids {ids}")
        if list(self.retired) != sorted(set(self.retired)) \
                or set(self.retired) & set(ids):
            raise ShardMapError(f"retired ids {list(self.retired)} must be "
                                f"unique and disjoint from live ids {ids}")
        for shard_id, status in self.statuses:
            if status not in SHARD_STATUSES:
                raise ShardMapError(f"shard {shard_id} has unknown status "
                                    f"{status!r}")
        if not self.entries or self.entries[0].cut_epoch is not None:
            raise ShardMapError("the first routing entry must cover all "
                                "epochs (cut_epoch None)")
        cuts = [entry.cut_epoch for entry in self.entries[1:]]
        if any(cut is None for cut in cuts) or cuts != sorted(set(cuts)):
            raise ShardMapError(f"routing cuts must be unique and ascending, "
                                f"got {cuts}")
        routable = {shard_id for shard_id, status in self.statuses
                    if status == "active"}
        for entry in self.entries:
            stray = set(entry.shard_ids) - routable
            if stray:
                raise ShardMapError(f"routing entry at cut "
                                    f"{entry.cut_epoch} references "
                                    f"non-active shards {sorted(stray)}")

    # ----- queries --------------------------------------------------------------------

    def status_of(self, shard_id: int) -> str:
        for sid, status in self.statuses:
            if sid == shard_id:
                return status
        raise ShardMapError(f"unknown shard id {shard_id}")

    @property
    def shard_ids(self) -> Tuple[int, ...]:
        """Every shard the map knows about (any status), ascending."""
        return tuple(sid for sid, _ in self.statuses)

    @property
    def active_ids(self) -> Tuple[int, ...]:
        return tuple(sid for sid, status in self.statuses
                     if status == "active")

    @property
    def live_ids(self) -> Tuple[int, ...]:
        """Shards that (may) hold state: active or draining, ascending."""
        return tuple(sid for sid, status in self.statuses
                     if status in ("active", "draining"))

    @property
    def next_id(self) -> int:
        """The id a newly added shard takes (ids are never reused — the
        retired tombstones keep drained ids allocated forever)."""
        known = self.shard_ids + self.retired
        return max(known) + 1 if known else 0

    def entry_for(self, epoch: int) -> RoutingEntry:
        """The routing entry owning ``epoch`` (largest cut <= epoch)."""
        owner = self.entries[0]
        for entry in self.entries[1:]:
            if entry.cut_epoch <= epoch:
                owner = entry
            else:
                break
        return owner

    def shard_for(self, route_key: int, epoch: int) -> int:
        """The shard id owning ``route_key`` at ``epoch``."""
        return self.entry_for(epoch).shard_of(route_key)

    @property
    def newest_partition(self) -> ShardPartition:
        """Partition of the newest entry (the steady-state table)."""
        return self.entries[-1].partition

    def is_routable(self, shard_id: int) -> bool:
        """True while any entry can still direct frames at ``shard_id``."""
        return any(shard_id in entry.shard_ids for entry in self.entries)

    # ----- transitions ----------------------------------------------------------------

    @classmethod
    def initial(cls, num_shards: int, partition: ShardPartition) -> "ShardMap":
        """Version-1 map of a fresh fixed-size cluster."""
        ids = tuple(range(num_shards))
        return cls(version=1,
                   statuses=tuple((sid, "active") for sid in ids),
                   entries=(RoutingEntry(None, ids, partition),))

    def _with(self, statuses, entries, retired=None) -> "ShardMap":
        return ShardMap(version=self.version + 1,
                        statuses=tuple(statuses), entries=tuple(entries),
                        retired=(self.retired if retired is None
                                 else tuple(retired)))

    def with_joining(self, shard_id: int) -> "ShardMap":
        """A spawned-but-unrouted shard (the grow transition's first half)."""
        if any(sid == shard_id for sid, _ in self.statuses):
            raise ShardMapError(f"shard {shard_id} already in the map")
        statuses = sorted(self.statuses + ((shard_id, "joining"),))
        return self._with(statuses, self.entries)

    def with_activated(self, shard_id: int, cut_epoch: int,
                       partition: ShardPartition) -> "ShardMap":
        """Commit a grow: from ``cut_epoch`` on, ``partition`` spreads
        traffic over the active shards *plus* the activated one."""
        if self.status_of(shard_id) != "joining":
            raise ShardMapError(f"shard {shard_id} is "
                                f"{self.status_of(shard_id)}, not joining")
        last_cut = self.entries[-1].cut_epoch
        if last_cut is not None and cut_epoch <= last_cut:
            raise ShardMapError(f"activation cut {cut_epoch} must exceed the "
                                f"newest cut {last_cut}")
        statuses = tuple((sid, "active" if sid == shard_id else status)
                         for sid, status in self.statuses)
        ids = tuple(sid for sid, status in statuses if status == "active")
        entry = RoutingEntry(int(cut_epoch), ids, partition)
        return self._with(statuses, self.entries + (entry,))

    def with_drained_routing(self, shard_id: int,
                             target_id: int) -> "ShardMap":
        """Start a drain: mark ``shard_id`` draining and rewrite every
        entry to send its slots to ``target_id``.  No new frame can reach
        the draining shard from this version on; its absorbed state is
        handed off to ``target_id`` out of band."""
        if self.status_of(shard_id) != "active":
            raise ShardMapError(f"shard {shard_id} is "
                                f"{self.status_of(shard_id)}, not active")
        if self.status_of(target_id) != "active" or target_id == shard_id:
            raise ShardMapError(f"drain target {target_id} must be a "
                                f"different active shard")
        if len(self.active_ids) < 2:
            raise ShardMapError("cannot drain the last active shard")
        statuses = tuple((sid, "draining" if sid == shard_id else status)
                         for sid, status in self.statuses)
        entries = tuple(
            RoutingEntry(entry.cut_epoch,
                         tuple(target_id if sid == shard_id else sid
                               for sid in entry.shard_ids),
                         entry.partition)
            for entry in self.entries)
        return self._with(statuses, entries)

    def with_removed(self, shard_id: int) -> "ShardMap":
        """Finish a drain: forget the shard entirely (its state is merged)."""
        if self.status_of(shard_id) not in ("draining", "joining"):
            raise ShardMapError(f"shard {shard_id} is "
                                f"{self.status_of(shard_id)}; only draining "
                                f"or joining shards can be removed")
        if self.is_routable(shard_id):
            raise ShardMapError(f"shard {shard_id} is still routable")
        statuses = tuple((sid, status) for sid, status in self.statuses
                         if sid != shard_id)
        if not statuses:
            raise ShardMapError("cannot remove the last shard")
        return self._with(statuses, self.entries,
                          retired=sorted(self.retired + (shard_id,)))

    # ----- serialization --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": _FORMAT,
            "format_version": _VERSION,
            "version": self.version,
            "shards": [{"id": sid, "status": status}
                       for sid, status in self.statuses],
            "retired": list(self.retired),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardMap":
        if data.get("format") != _FORMAT:
            raise ShardMapError(f"not a shard map: format "
                                f"{data.get('format')!r}")
        if int(data.get("format_version", 0)) != _VERSION:
            raise ShardMapError(f"unsupported shard-map format version "
                                f"{data.get('format_version')!r}")
        return cls(
            version=int(data["version"]),
            statuses=tuple((int(s["id"]), str(s["status"]))
                           for s in data["shards"]),
            entries=tuple(RoutingEntry.from_dict(e)
                          for e in data["entries"]),
            retired=tuple(int(i) for i in data.get("retired", [])),
        )


class ShardMapStore:
    """Atomic, checksummed persistence of the current map (the commit
    point of every membership transition — see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def save(self, shard_map: ShardMap) -> None:
        write_snapshot(self.path, shard_map.to_dict())

    def load(self) -> Optional[ShardMap]:
        """The persisted map, or ``None`` when no map was ever committed.

        A corrupt file raises :class:`~repro.server.snapshot.
        SnapshotCorruptError` — membership state is never guessed.
        """
        if not self.path.exists():
            return None
        return ShardMap.from_dict(read_snapshot(self.path))
