"""Skewed-associative cache [Bodin & Seznec 1997].

The paper's four-core experiment (section 4.2) uses a "512-Kbyte, 4-way
skewed-associative" L2 on each core and a "8k entries ... 4-way
skewed-associative" affinity cache.  In a skewed cache each way is an
independent direct-mapped bank indexed by a *different* hash of the
address, which breaks the set-conflict pathologies of conventional
set-associative caches.

The skewing functions here follow the spirit of Seznec's original
functions: the index for way ``w`` XORs the low index bits with a
``w``-dependent mix of the tag bits (:func:`skew_hash`).  Replacement is
timestamp-LRU among the ``ways`` candidate slots, one per bank.
"""

from __future__ import annotations

from repro.caches.base import CacheStats, EvictedLine, check_power_of_two

_GOLDEN64 = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, a standard bit mixer


def skew_hash(line: int, way: int, index_bits: int) -> int:
    """Skewing function: bank index of ``line`` in way ``way``.

    Way 0 uses the plain low index bits (so a skewed cache degenerates
    gracefully to direct-mapped when ``ways == 1``); each further way
    XORs in a differently-rotated, golden-ratio-mixed copy of the upper
    address bits.
    """
    mask = (1 << index_bits) - 1
    index = line & mask
    if way == 0:
        return index
    tag = line >> index_bits
    mixed = (tag * _GOLDEN64 + way * 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
    rotation = (way * 7) % 64
    mixed = ((mixed >> rotation) | (mixed << (64 - rotation))) & 0xFFFFFFFFFFFFFFFF
    return (index ^ (mixed & mask) ^ ((mixed >> index_bits) & mask)) & mask


class SkewedAssociativeCache:
    """A ``ways``-way skewed-associative cache of ``num_sets`` sets.

    Exposes the same interface as
    :class:`repro.caches.set_assoc.SetAssociativeCache` so the two are
    interchangeable in the hierarchy and the affinity cache.
    """

    __slots__ = (
        "num_sets",
        "ways",
        "stats",
        "last_eviction",
        "_index_bits",
        "_lines",
        "_dirty",
        "_time",
        "_clock",
    )

    def __init__(self, num_sets: int, ways: int) -> None:
        check_power_of_two(num_sets, "num_sets")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.stats = CacheStats()
        self.last_eviction: "EvictedLine | None" = None
        self._index_bits = num_sets.bit_length() - 1
        # One flat array per attribute, indexed by way * num_sets + index.
        size = num_sets * ways
        self._lines: "list[int | None]" = [None] * size
        self._dirty = [False] * size
        self._time = [0] * size
        self._clock = 0

    @classmethod
    def from_bytes(
        cls, capacity_bytes: int, line_size: int, ways: int
    ) -> "SkewedAssociativeCache":
        lines = capacity_bytes // line_size
        if lines * line_size != capacity_bytes or lines % ways:
            raise ValueError(
                f"capacity {capacity_bytes} not divisible into {ways} banks "
                f"of {line_size}-byte lines"
            )
        return cls(lines // ways, ways)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _slot(self, line: int, way: int) -> int:
        return way * self.num_sets + skew_hash(line, way, self._index_bits)

    def _find(self, line: int) -> int:
        """Slot holding ``line``, or -1."""
        for way in range(self.ways):
            slot = self._slot(line, way)
            if self._lines[slot] == line:
                return slot
        return -1

    def __contains__(self, line: int) -> bool:
        return self._find(line) >= 0

    def __len__(self) -> int:
        return sum(1 for entry in self._lines if entry is not None)

    def access(self, line: int, write: bool = False, allocate: bool = True) -> bool:
        """Reference ``line``; return ``True`` on hit."""
        self.stats.accesses += 1
        self.last_eviction = None
        self._clock += 1
        slot = self._find(line)
        if slot >= 0:
            self.stats.hits += 1
            self._time[slot] = self._clock
            if write:
                self._dirty[slot] = True
            return True
        self.stats.misses += 1
        if allocate:
            self._install(line, dirty=write)
        return False

    def _install(self, line: int, dirty: bool) -> None:
        victim_slot = -1
        victim_time = None
        for way in range(self.ways):
            slot = self._slot(line, way)
            if self._lines[slot] is None:
                victim_slot = slot
                victim_time = None
                break
            if victim_time is None or self._time[slot] < victim_time:
                victim_slot = slot
                victim_time = self._time[slot]
        if self._lines[victim_slot] is not None:
            self.stats.evictions += 1
            victim_dirty = self._dirty[victim_slot]
            if victim_dirty:
                self.stats.writebacks += 1
            self.last_eviction = EvictedLine(self._lines[victim_slot], victim_dirty)
        self._lines[victim_slot] = line
        self._dirty[victim_slot] = dirty
        self._time[victim_slot] = self._clock

    def fill(self, line: int, dirty: bool = False) -> None:
        """Install without counting an access (broadcast fills)."""
        self._clock += 1
        self.last_eviction = None
        slot = self._find(line)
        if slot >= 0:
            self._time[slot] = self._clock
            if dirty:
                self._dirty[slot] = True
            return
        self._install(line, dirty)

    def update_if_present(self, line: int, dirty: bool = True) -> bool:
        slot = self._find(line)
        if slot < 0:
            return False
        self._dirty[slot] = self._dirty[slot] or dirty
        return True

    def invalidate(self, line: int) -> bool:
        slot = self._find(line)
        if slot < 0:
            return False
        self._lines[slot] = None
        self._dirty[slot] = False
        return True

    def is_dirty(self, line: int) -> bool:
        slot = self._find(line)
        return slot >= 0 and self._dirty[slot]

    def set_dirty(self, line: int, dirty: bool) -> None:
        """Force the modified bit of a resident line (section 2.1)."""
        slot = self._find(line)
        if slot < 0:
            raise KeyError(f"line {line:#x} not resident")
        self._dirty[slot] = dirty

    def resident_lines(self) -> "list[int]":
        return [entry for entry in self._lines if entry is not None]
