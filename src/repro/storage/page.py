"""Fixed-size pages with a slotted layout.

The metadata database stores tweet records in heap files of slotted pages;
B+-tree nodes serialise into raw pages.  A page is a ``bytearray`` of
:data:`PAGE_SIZE` bytes plus a dirty flag and pin count managed by the
buffer pool.

Slotted-page layout (used by :class:`SlottedPage`):

* header: ``slot_count`` (u16), ``free_space_offset`` (u16)
* slot directory grows downward from the header: per slot ``offset`` (u16),
  ``length`` (u16); a zero offset marks a deleted slot
* record data grows upward from the end of the page
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")
_SLOT = struct.Struct("<HH")
_HEADER_SIZE = _HEADER.size
_SLOT_SIZE = _SLOT.size

#: Sentinel page number meaning "no page".
INVALID_PAGE = 0xFFFFFFFF


class PageError(RuntimeError):
    """Raised on page-level corruption or capacity violations."""


class Page:
    """A raw page: fixed-size buffer plus bookkeeping for the buffer pool."""

    __slots__ = ("page_no", "data", "dirty", "pin_count")

    def __init__(self, page_no: int, data: Optional[bytes] = None) -> None:
        self.page_no = page_no
        if data is None:
            self.data = bytearray(PAGE_SIZE)
        else:
            if len(data) != PAGE_SIZE:
                raise PageError(f"page data must be {PAGE_SIZE} bytes, got {len(data)}")
            self.data = bytearray(data)
        self.dirty = False
        self.pin_count = 0

    def mark_dirty(self) -> None:
        self.dirty = True


class SlottedPage:
    """Slotted-record view over a :class:`Page`.

    Records are arbitrary byte strings up to the free space of the page.
    Slot indices are stable across deletes (deleted slots are tombstoned),
    which lets record ids ``(page_no, slot)`` remain valid references.
    """

    def __init__(self, page: Page) -> None:
        self.page = page

    # -- header access -----------------------------------------------------

    def _read_header(self) -> Tuple[int, int]:
        slot_count, free_offset = _HEADER.unpack_from(self.page.data, 0)
        if free_offset == 0:  # freshly zeroed page
            free_offset = PAGE_SIZE
        return slot_count, free_offset

    def _write_header(self, slot_count: int, free_offset: int) -> None:
        _HEADER.pack_into(self.page.data, 0, slot_count, free_offset)
        self.page.mark_dirty()

    def _slot_pos(self, slot: int) -> int:
        return _HEADER_SIZE + slot * _SLOT_SIZE

    def _read_slot(self, slot: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(self.page.data, self._slot_pos(slot))

    def _write_slot(self, slot: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.page.data, self._slot_pos(slot), offset, length)
        self.page.mark_dirty()

    # -- public API ----------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return self._read_header()[0]

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        slot_count, free_offset = self._read_header()
        directory_end = _HEADER_SIZE + slot_count * _SLOT_SIZE
        available = free_offset - directory_end - _SLOT_SIZE
        return max(0, available)

    def insert(self, record: bytes) -> int:
        """Insert a record, returning its slot index.

        Raises :class:`PageError` when the record does not fit.
        """
        if not record:
            raise PageError("cannot insert empty record")
        slot_count, free_offset = self._read_header()
        needed = len(record) + _SLOT_SIZE
        directory_end = _HEADER_SIZE + slot_count * _SLOT_SIZE
        if free_offset - directory_end < needed:
            raise PageError("record does not fit in page")
        new_offset = free_offset - len(record)
        self.page.data[new_offset:free_offset] = record
        slot = slot_count
        self._write_header(slot_count + 1, new_offset)
        self._write_slot(slot, new_offset, len(record))
        return slot

    def read(self, slot: int) -> bytes:
        """Read the record at ``slot``; raises KeyError for deleted or
        out-of-range slots."""
        slot_count, _free = self._read_header()
        if not 0 <= slot < slot_count:
            raise KeyError(f"slot {slot} out of range (page has {slot_count})")
        offset, length = self._read_slot(slot)
        if offset == 0:
            raise KeyError(f"slot {slot} is deleted")
        return bytes(self.page.data[offset:offset + length])

    def delete(self, slot: int) -> None:
        """Tombstone the record at ``slot`` (space is not compacted)."""
        slot_count, _free = self._read_header()
        if not 0 <= slot < slot_count:
            raise KeyError(f"slot {slot} out of range (page has {slot_count})")
        offset, _length = self._read_slot(slot)
        if offset == 0:
            raise KeyError(f"slot {slot} already deleted")
        self._write_slot(slot, 0, 0)

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield ``(slot, record)`` for every live record."""
        slot_count, _free = self._read_header()
        for slot in range(slot_count):
            offset, length = self._read_slot(slot)
            if offset != 0:
                yield (slot, bytes(self.page.data[offset:offset + length]))

    def live_count(self) -> int:
        return sum(1 for _ in self.records())


def pack_record_id(page_no: int, slot: int) -> int:
    """Pack a ``(page_no, slot)`` pair into a single int64 record pointer."""
    if page_no < 0 or slot < 0 or slot > 0xFFFF:
        raise ValueError(f"bad record id components: page={page_no}, slot={slot}")
    return (page_no << 16) | slot


def unpack_record_id(pointer: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_record_id`."""
    return (pointer >> 16, pointer & 0xFFFF)
