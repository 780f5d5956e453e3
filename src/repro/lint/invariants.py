"""Deep structural invariant validators (Layer 2 of ``repro check``).

Where the static rules (:mod:`repro.lint.rules`) catch code-shape bugs,
these validators inspect *built* structures — B+-trees, slotted heap
pages, geohash circle covers, and the forward↔inverted index pair — and
report every violation rather than raising on the first, so one run
paints the full corruption picture.

The validators deliberately reach into storage internals (``tree._load``,
``pool.pinned``): they are the auditors of those representations, so
coupling to the byte layout is their job, not a layering violation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..core.model import Post
from ..geo import geohash
from ..geo.cover import circle_cover, min_distance_to_cell
from ..geo.distance import DEFAULT_METRIC, Metric
from ..geo.quadtree import QuadTree, _Node
from ..index import blocks as blocks_mod
from ..index.hybrid import HybridIndex
from ..index.postings import ENTRY_SIZE
from ..storage.bptree import (
    INTERNAL_MIN,
    LEAF_MIN,
    MAX_KEY,
    MIN_KEY,
    BPlusTree,
    Key,
    _Node as _TreeNode,
)
from ..storage.heapfile import HeapFile
from ..storage.metadata import MetadataDatabase
from ..storage.page import INVALID_PAGE, PAGE_SIZE

Coordinate = Tuple[float, float]

#: Mirror of the slotted-page layout in :mod:`repro.storage.page`
#: (slot_count u16, free_offset u16; per-slot offset u16, length u16).
_PAGE_HEADER = struct.Struct("<HH")
_PAGE_SLOT = struct.Struct("<HH")

#: Tolerance for quadtree boundary containment: points exactly on a split
#: line are snapped to the last quadrant by ``QuadTree._child_for``.
_GEO_EPS = 1e-9

#: Injectable cover function signature, for corruption tests.
CoverFn = Callable[[Coordinate, float, int, Metric], List[str]]


@dataclass(frozen=True)
class InvariantViolation:
    """One broken structural invariant at one location."""

    validator: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.validator}] {self.location}: {self.message}"

    def to_dict(self) -> Dict[str, str]:
        return {"validator": self.validator, "location": self.location,
                "message": self.message}


# -- B+-tree ---------------------------------------------------------------

def validate_bptree(tree: BPlusTree, name: str = "bptree"
                    ) -> List[InvariantViolation]:
    """Check node typing, key order/bounds, fill factors, uniform leaf
    depth, recorded size, and the left-to-right leaf chain."""
    violations: List[InvariantViolation] = []
    leaves: List[_TreeNode] = []
    seen: Set[int] = set()

    def bad(page_no: int, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=f"page {page_no}", message=message))

    def walk(page_no: int, lo: Key, hi: Key, depth: int) -> int:
        if page_no in seen:
            bad(page_no, "node reachable twice (cycle or shared child)")
            return 0
        seen.add(page_no)
        try:
            node = tree._load(page_no)
        except Exception as exc:  # corrupt bytes raise many shapes
            bad(page_no, f"node failed to load: {exc}")
            return 0
        is_root = page_no == tree._root_page
        if node.keys != sorted(node.keys):
            bad(page_no, "keys out of order within node")
        for key in node.keys:
            if not lo <= key <= hi:
                bad(page_no, f"key {key} outside separator bounds "
                             f"({lo}, {hi})")
        if node.is_leaf:
            if depth != tree._height:
                bad(page_no, f"leaf at depth {depth}, tree height is "
                             f"{tree._height}")
            if not is_root and len(node.keys) < LEAF_MIN:
                bad(page_no, f"leaf underfull: {len(node.keys)} < {LEAF_MIN}")
            if len(node.values) != len(node.keys):
                bad(page_no, f"leaf has {len(node.keys)} keys but "
                             f"{len(node.values)} values")
            leaves.append(node)
            return len(node.keys)
        if not is_root and len(node.keys) < INTERNAL_MIN:
            bad(page_no, f"internal underfull: {len(node.keys)} "
                         f"< {INTERNAL_MIN}")
        if is_root and not node.keys:
            bad(page_no, "internal root has no keys")
        if len(node.children) != len(node.keys) + 1:
            bad(page_no, f"internal has {len(node.keys)} keys but "
                         f"{len(node.children)} children")
            return 0
        total = 0
        bounds = [lo] + node.keys + [hi]
        for i, child in enumerate(node.children):
            total += walk(child, bounds[i], bounds[i + 1], depth + 1)
        return total

    counted = walk(tree._root_page, MIN_KEY, MAX_KEY, 1)
    if not violations and counted != len(tree):
        violations.append(InvariantViolation(
            validator=name, location="meta page",
            message=f"recorded size {len(tree)} but counted {counted} "
                    f"entries"))

    # Leaf chain must thread the leaves in exactly tree order.
    previous_key: Optional[Key] = None
    for i, leaf in enumerate(leaves):
        expected = (leaves[i + 1].page_no if i + 1 < len(leaves)
                    else INVALID_PAGE)
        if leaf.next_leaf != expected:
            bad(leaf.page_no,
                f"next_leaf is {leaf.next_leaf}, expected {expected}")
        for key in leaf.keys:
            if previous_key is not None and key <= previous_key:
                bad(leaf.page_no,
                    f"leaf chain out of order: {previous_key} !< {key}")
            previous_key = key
    return violations


# -- slotted heap pages ----------------------------------------------------

def _validate_slotted_bytes(name: str, page_no: int, data: bytes
                            ) -> List[InvariantViolation]:
    violations: List[InvariantViolation] = []

    def bad(message: str, slot: Optional[int] = None) -> None:
        where = (f"page {page_no}" if slot is None
                 else f"page {page_no} slot {slot}")
        violations.append(InvariantViolation(
            validator=name, location=where, message=message))

    slot_count, free_offset = _PAGE_HEADER.unpack_from(data, 0)
    if free_offset == 0:  # freshly zeroed page means "empty"
        free_offset = PAGE_SIZE
    directory_end = _PAGE_HEADER.size + slot_count * _PAGE_SLOT.size
    if directory_end > PAGE_SIZE:
        bad(f"slot directory ({slot_count} slots) exceeds the page")
        return violations
    if free_offset < directory_end:
        bad(f"free offset {free_offset} overlaps the slot directory "
            f"(ends at {directory_end})")
    if free_offset > PAGE_SIZE:
        bad(f"free offset {free_offset} beyond page size {PAGE_SIZE}")

    intervals: List[Tuple[int, int, int]] = []  # (offset, end, slot)
    for slot in range(slot_count):
        offset, length = _PAGE_SLOT.unpack_from(
            data, _PAGE_HEADER.size + slot * _PAGE_SLOT.size)
        if offset == 0:  # tombstone
            continue
        if length == 0:
            bad("live slot with zero length", slot)
            continue
        if offset < free_offset:
            bad(f"record offset {offset} below free offset {free_offset} "
                f"(record sits in free space)", slot)
        if offset + length > PAGE_SIZE:
            bad(f"record [{offset}, {offset + length}) runs past the "
                f"page end", slot)
            continue
        intervals.append((offset, offset + length, slot))

    intervals.sort()
    for (_s1, end1, slot1), (start2, _e2, slot2) in zip(intervals,
                                                        intervals[1:]):
        if start2 < end1:
            bad(f"record overlaps slot {slot1}'s record", slot2)
    return violations


def validate_heap_pages(heap: HeapFile, name: str = "heap"
                        ) -> List[InvariantViolation]:
    """Check the slot-directory consistency of every page in a heap file."""
    violations: List[InvariantViolation] = []
    pool = heap._pool
    for page_no in range(heap.page_count):
        try:
            with pool.pinned(page_no) as page:
                data = bytes(page.data)
        except Exception as exc:
            violations.append(InvariantViolation(
                validator=name, location=f"page {page_no}",
                message=f"page failed to load: {exc}"))
            continue
        violations.extend(_validate_slotted_bytes(name, page_no, data))
    return violations


# -- geohash circle covers -------------------------------------------------

def validate_cover_soundness(
        posts: Sequence[Post], geohash_length: int,
        queries: Sequence[Tuple[Coordinate, float]],
        metric: Metric = DEFAULT_METRIC,
        cover_fn: CoverFn = circle_cover,
        name: str = "cover") -> List[InvariantViolation]:
    """Check completeness and minimality of circle covers against real data.

    * **Completeness** — every post within ``radius_km`` of a query centre
      encodes to a cell in that query's cover (miss one and the query
      engine silently drops in-radius candidates).
    * **Minimality** — every cover cell actually intersects the circle
      (a spurious cell costs postings fetches for unreachable data).

    ``cover_fn`` is injectable so tests can validate a deliberately
    broken cover implementation.
    """
    violations: List[InvariantViolation] = []
    for qi, (center, radius_km) in enumerate(queries):
        cells = cover_fn(center, radius_km, geohash_length, metric)
        cell_set = set(cells)
        where = (f"query {qi} ({center[0]:.4f}, {center[1]:.4f}) "
                 f"r={radius_km}km")
        for post in posts:
            if metric(center, post.location) > radius_km:
                continue
            cell = geohash.encode(post.location[0], post.location[1],
                                  geohash_length)
            if cell not in cell_set:
                violations.append(InvariantViolation(
                    validator=name, location=where,
                    message=f"post {post.sid} at {post.location} is "
                            f"in-radius but its cell {cell!r} is not in "
                            f"the cover"))
        for cell in cells:
            bounds = geohash.decode_cell(cell)
            if min_distance_to_cell(center, bounds, metric) > radius_km:
                violations.append(InvariantViolation(
                    validator=name, location=where,
                    message=f"cover cell {cell!r} does not intersect "
                            f"the query circle"))
    return violations


# -- forward index ↔ inverted postings ------------------------------------

def validate_forward_inverted(
        index: HybridIndex, database: Optional[MetadataDatabase] = None,
        name: str = "forward-inverted") -> List[InvariantViolation]:
    """Cross-check every forward-index entry against the DFS-resident
    postings bytes it points at.

    Checks: the byte extent matches the entry count (flat payloads) or
    the payload parses in the block format; the bytes decode as postings;
    and (when a metadata ``database`` is supplied) every posting's tweet
    exists and actually lies in the cell it is indexed under.
    """
    violations: List[InvariantViolation] = []

    def bad(where: str, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=where, message=message))

    for (cell, term), ref in index.forward.items():
        where = f"({cell!r}, {term!r}) -> {ref.path}@{ref.offset}"
        try:
            reader = index.cluster.open(ref.path)
            data = reader.pread(ref.offset, ref.length)
        except Exception as exc:
            bad(where, f"postings bytes unreadable: {exc}")
            continue
        if len(data) != ref.length:
            bad(where, f"short read: got {len(data)} of {ref.length} bytes")
            continue
        if not _is_block_payload(data):
            if ref.length != ref.count * ENTRY_SIZE:
                bad(where, f"length {ref.length} != count {ref.count} * "
                           f"{ENTRY_SIZE} bytes")
                continue
        try:
            postings = blocks_mod.decode_any(data)
        except ValueError as exc:
            bad(where, f"postings bytes do not decode: {exc}")
            continue
        if len(postings) != ref.count:
            bad(where, f"decoded {len(postings)} postings, forward entry "
                       f"says {ref.count}")
        if database is None:
            continue
        for tid, tf in postings:
            record = database.get(tid)
            if record is None:
                bad(where, f"posting references unknown tweet {tid}")
                continue
            if tf <= 0:
                bad(where, f"tweet {tid} has non-positive tf {tf}")
            actual = geohash.encode(record.lat, record.lon, len(cell))
            if actual != cell:
                bad(where, f"tweet {tid} lies in cell {actual!r}, not "
                           f"{cell!r}")
    return violations


# -- block-format postings headers -----------------------------------------

def _is_block_payload(data: bytes) -> bool:
    return (len(data) >= 2 and data[0] == blocks_mod.MAGIC
            and data[1] == blocks_mod.FORMAT_VERSION)


def validate_block_headers(index: HybridIndex, name: str = "block-headers"
                           ) -> List[InvariantViolation]:
    """Check skip-table/body consistency of every block-format payload.

    The skip metadata is what lets readers *not* decode blocks, so a
    header that lies (wrong ``min_tid``/``max_tid``/``max_tf``/``count``)
    silently drops or mis-bounds candidates.  For each block this decodes
    the body and cross-checks it against its header: entry count, first
    and last tids, tid ordering within and across blocks, and the exact
    ``max_tf``.  Flat-format payloads are skipped (they carry no headers).
    """
    violations: List[InvariantViolation] = []

    def bad(where: str, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=where, message=message))

    for (cell, term), ref in index.forward.items():
        where = f"({cell!r}, {term!r}) -> {ref.path}@{ref.offset}"
        try:
            reader = index.cluster.open(ref.path)
            data = reader.pread(ref.offset, ref.length)
        except Exception as exc:
            bad(where, f"postings bytes unreadable: {exc}")
            continue
        if not _is_block_payload(data):
            continue
        try:
            parsed = blocks_mod._parse_blocks(data)
        except blocks_mod.PostingsFormatError as exc:
            bad(where, f"block payload does not parse: {exc}")
            continue
        if parsed.total != ref.count:
            bad(where, f"payload holds {parsed.total} entries, forward "
                       f"entry says {ref.count}")
        previous_tid: Optional[int] = None
        for block_no, header in enumerate(parsed.headers):
            at = f"{where} block {block_no}"
            if header.min_tid > header.max_tid:
                bad(at, f"min_tid {header.min_tid} > max_tid "
                        f"{header.max_tid}")
            if (previous_tid is not None
                    and header.min_tid < previous_tid):
                bad(at, f"min_tid {header.min_tid} below previous "
                        f"block's last tid {previous_tid}")
            try:
                entries = blocks_mod._decode_block(data, header)
            except blocks_mod.PostingsFormatError as exc:
                bad(at, f"body does not decode: {exc}")
                previous_tid = header.max_tid
                continue
            if len(entries) != header.count:
                bad(at, f"decoded {len(entries)} entries, header says "
                        f"{header.count}")
            if entries:
                if entries[0][0] != header.min_tid:
                    bad(at, f"first tid {entries[0][0]} != header min_tid "
                            f"{header.min_tid}")
                if entries[-1][0] != header.max_tid:
                    bad(at, f"last tid {entries[-1][0]} != header max_tid "
                            f"{header.max_tid}")
                actual_max_tf = max(tf for _tid, tf in entries)
                if actual_max_tf != header.max_tf:
                    bad(at, f"actual max tf {actual_max_tf} != header "
                            f"max_tf {header.max_tf}")
                for tid, _tf in entries:
                    if previous_tid is not None and tid < previous_tid:
                        bad(at, f"tid {tid} out of order after "
                                f"{previous_tid}")
                    previous_tid = tid
    return violations


# -- quadtree --------------------------------------------------------------

def validate_quadtree(tree: QuadTree, name: str = "quadtree"
                      ) -> List[InvariantViolation]:
    """Check point containment, leaf/internal shape, depth bounds, and the
    size counter of a :class:`~repro.geo.quadtree.QuadTree`."""
    violations: List[InvariantViolation] = []

    def bad(node: "_Node", message: str) -> None:
        b = node.bounds
        violations.append(InvariantViolation(
            validator=name,
            location=f"node depth={node.depth} "
                     f"[{b.min_lat:.4f},{b.min_lon:.4f},"
                     f"{b.max_lat:.4f},{b.max_lon:.4f}]",
            message=message))

    counted = 0
    stack: List["_Node"] = [tree._root]
    while stack:
        node = stack.pop()
        if node.depth > tree._max_depth:
            bad(node, f"depth {node.depth} exceeds max_depth "
                      f"{tree._max_depth}")
        if node.is_leaf:
            counted += len(node.points)
            for lat, lon, _value in node.points:
                b = node.bounds
                if not (b.min_lat - _GEO_EPS <= lat <= b.max_lat + _GEO_EPS
                        and b.min_lon - _GEO_EPS <= lon
                        <= b.max_lon + _GEO_EPS):
                    bad(node, f"point ({lat}, {lon}) outside leaf bounds")
        else:
            if node.points:
                bad(node, f"internal node retains {len(node.points)} "
                          f"points after split")
            assert node.children is not None
            if len(node.children) != 4:
                bad(node, f"internal node has {len(node.children)} "
                          f"children, expected 4")
            stack.extend(node.children)
    if counted != len(tree):
        violations.append(InvariantViolation(
            validator=name, location="root",
            message=f"size counter says {len(tree)} points, leaves hold "
                    f"{counted}"))
    return violations


# -- WAL and memtable (the real-time write path) -----------------------------

def validate_wal_segments(wal_dir: str, name: str = "wal"
                          ) -> List[InvariantViolation]:
    """Structural invariants of a WAL directory.

    Every complete record's CRC must verify, LSNs must be strictly
    increasing within and across segments (segments scanned in numeric
    order), and a torn tail — legal fallout of a crash — may exist only
    in the final segment, because rotation fsyncs before sealing.
    """
    import os

    from ..ingest.wal import WALCorruptionError, replay_segment, segment_number

    violations: List[InvariantViolation] = []
    if not os.path.isdir(wal_dir):
        return [InvariantViolation(
            validator=name, location=wal_dir,
            message="WAL directory does not exist")]
    names = sorted((entry for entry in os.listdir(wal_dir)
                    if entry.startswith("wal-") and entry.endswith(".log")),
                   key=segment_number)
    last_lsn: Optional[int] = None
    for position, segment in enumerate(names):
        path = os.path.join(wal_dir, segment)
        try:
            records, result = replay_segment(path, repair_torn_tail=False)
        except WALCorruptionError as error:
            violations.append(InvariantViolation(
                validator=name, location=segment, message=str(error)))
            continue
        if result.torn_tail and position != len(names) - 1:
            violations.append(InvariantViolation(
                validator=name, location=segment,
                message=f"torn tail at offset {result.torn_offset} in a "
                        f"non-final segment"))
        for lsn, _post in records:
            if last_lsn is not None and lsn <= last_lsn:
                violations.append(InvariantViolation(
                    validator=name, location=segment,
                    message=f"LSN {lsn} not above predecessor {last_lsn}"))
            last_lsn = lsn
    return violations


def validate_memtable_replay(service: object, name: str = "memtable-replay"
                             ) -> List[InvariantViolation]:
    """The recovery contract: the live memtables must equal a replay of
    the surviving WAL segments.

    Replays the service's WAL directory into a fresh
    :class:`~repro.ingest.memindex.MemIndex` and checks (a) the
    ``(lsn, sid)`` sequences match and (b) every indexed
    ``(cell, term)`` postings list is identical — so a crash at this
    instant would recover to exactly the current query view.
    """
    import os

    from ..ingest.memindex import MemIndex
    from ..ingest.wal import WALCorruptionError, replay_segment, segment_number

    violations: List[InvariantViolation] = []

    def note(location: str, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=location, message=message))

    wal_dir = os.path.join(service.directory, "wal")  # type: ignore[attr-defined]
    names = sorted((entry for entry in os.listdir(wal_dir)
                    if entry.startswith("wal-") and entry.endswith(".log")),
                   key=segment_number)
    replayed = MemIndex(service.index_config,       # type: ignore[attr-defined]
                        service.analyzer)           # type: ignore[attr-defined]
    replayed_pairs: List[Tuple[int, int]] = []
    for segment in names:
        try:
            records, _result = replay_segment(
                os.path.join(wal_dir, segment), repair_torn_tail=False)
        except WALCorruptionError as error:
            note(segment, str(error))
            return violations
        for lsn, post in records:
            replayed.add(post, lsn)
            replayed_pairs.append((lsn, post.sid))

    live_pairs = sorted(
        (lsn, post.sid)
        for memtable in service.memtables    # type: ignore[attr-defined]
        for lsn, post in memtable.lsn_posts())
    if live_pairs != replayed_pairs:
        note(wal_dir,
             f"memtables hold {len(live_pairs)} records, WAL replay "
             f"yields {len(replayed_pairs)} (or ordering differs)")
        return violations

    live_keys = sorted({key for memtable in service.memtables  # type: ignore[attr-defined]
                        for key in memtable.keys()})
    if live_keys != replayed.keys():
        note(wal_dir, "indexed (cell, term) key sets differ between "
                      "memtables and WAL replay")
        return violations
    for cell, term in live_keys:
        merged: List[Tuple[int, int]] = []
        for memtable in service.memtables:   # type: ignore[attr-defined]
            merged.extend(memtable.postings(cell, term))
        merged.sort()
        if tuple(merged) != tuple(replayed.postings(cell, term)):
            note(f"{cell}/{term}",
                 "postings differ between memtables and WAL replay")
    return violations


# -- generation manifest / compaction ---------------------------------------

def validate_generation_manifest(directory: str,
                                 name: str = "generation-manifest"
                                 ) -> List[InvariantViolation]:
    """Manifest <-> directory agreement for an ingest directory.

    Every generation the manifest commits must have its directory and
    core files on disk with a ``posts.jsonl`` whose record count equals
    the committed ``post_count``; every ``gen-*`` directory on disk must
    be committed (recovery removes orphans, so a survivor is a bug);
    and the tier/seq metadata must be coherent — unique seqs, below the
    manifest's ``next_seq`` allocator, non-negative tiers.
    """
    import json
    import os

    violations: List[InvariantViolation] = []

    def note(location: str, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=location, message=message))

    manifest_path = os.path.join(directory, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        note(directory, "MANIFEST.json does not exist")
        return violations
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)

    entries = manifest.get("generations", [])
    generations_root = os.path.join(directory, "generations")
    committed: Set[str] = set()
    seqs: Dict[int, int] = {}
    next_seq = manifest.get("next_seq")
    for entry in entries:
        number = int(entry["number"])
        dir_name = f"gen-{number:05d}"
        committed.add(dir_name)
        gen_dir = os.path.join(generations_root, dir_name)
        if not os.path.isdir(gen_dir):
            note(dir_name, "committed in the manifest but the directory "
                           "is missing")
            continue
        posts_path = os.path.join(gen_dir, "posts.jsonl")
        if not os.path.exists(posts_path):
            note(dir_name, "posts.jsonl is missing")
        else:
            with open(posts_path, "r", encoding="utf-8") as handle:
                records = sum(1 for line in handle if line.strip())
            if records != int(entry["post_count"]):
                note(dir_name,
                     f"posts.jsonl holds {records} records, manifest "
                     f"commits post_count={entry['post_count']}")
        if int(entry.get("tier", 0)) < 0:
            note(dir_name, f"negative tier {entry.get('tier')}")
        seq = int(entry.get("seq", number))
        if seq in seqs:
            note(dir_name,
                 f"seq {seq} already used by gen-{seqs[seq]:05d}")
        seqs[seq] = number
        if isinstance(next_seq, int) and seq >= next_seq:
            note(dir_name,
                 f"seq {seq} is not below the manifest next_seq "
                 f"{next_seq} allocator")

    if os.path.isdir(generations_root):
        for dir_name in sorted(os.listdir(generations_root)):
            if dir_name.startswith("gen-") and dir_name not in committed:
                note(dir_name, "on disk but not committed in the manifest "
                               "(orphan that recovery should have removed)")
    return violations


def validate_compaction(service: object, name: str = "compaction"
                        ) -> List[InvariantViolation]:
    """Drive the service's compaction scheduler to quiescence and check
    the lifecycle contract held: no post is lost or duplicated across
    the merge (flushed post count is preserved), every surviving
    generation is ACTIVE, and the deferred-reclaim queue drains once no
    reader pins an old epoch.
    """
    from ..compaction import GenerationState

    violations: List[InvariantViolation] = []

    def note(location: str, message: str) -> None:
        violations.append(InvariantViolation(
            validator=name, location=location, message=message))

    directory = service.directory                # type: ignore[attr-defined]
    posts_before = sum(
        bucket["posts"]
        for bucket in service.tier_breakdown().values())  # type: ignore[attr-defined]
    try:
        service.compact()                        # type: ignore[attr-defined]
    except RuntimeError as error:
        note(directory, f"compaction did not quiesce: {error}")
        return violations
    posts_after = sum(
        bucket["posts"]
        for bucket in service.tier_breakdown().values())  # type: ignore[attr-defined]
    if posts_after != posts_before:
        note(directory,
             f"flushed post count changed across compaction: "
             f"{posts_before} -> {posts_after}")
    for generation in service.generations.items:  # type: ignore[attr-defined]
        if generation.state is not GenerationState.ACTIVE:
            note(f"gen-{generation.number:05d}",
                 f"current set holds a {generation.state.value} generation")
    service.generations.drain()                  # type: ignore[attr-defined]
    pending = service.generations.pending_reclaim()  # type: ignore[attr-defined]
    if pending:
        note(directory,
             f"{pending} superseded generation(s) still awaiting reclaim "
             f"with no pins outstanding")
    return violations
