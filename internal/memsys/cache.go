// Package memsys provides the storage substrate: generic set-associative
// cache arrays with LRU replacement (holding functional data blocks, so
// stale reads return genuinely stale values), and the backing memory
// model with the paper's 120–230 cycle latency band.
package memsys

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Way is one cache way's tag record: what a set scan reads — tag, valid
// and busy bits, LRU stamp, the line's protocol state — plus the rest of
// the protocol's line metadata, of type L, and a handle to the way's
// data block. State sits in the record's padding; it is 0 on an invalid
// way and after Install, and protocols write it only through their
// controller base (coherence), which reports every hop to the legality
// oracle. The block itself lives in the
// owning cache's slab (Cache.Block), not here: a lookup compares up to
// sixteen tags per set and reads at most one block, so keeping the 64
// data bytes out of the record more than halves the host cache lines a
// scan pulls in, and only ways that were ever filled cost data storage.
// The record holds no pointer and no array; as long as L is pointer-free
// the way arrays are too, so the GC never scans cache storage — at 64+
// cores the tag arrays are most of the live heap.
type Way[L any] struct {
	Tag     uint64
	lastUse int64
	blk     uint32 // slab handle + 1; 0 until the first Install
	Valid   bool
	Busy    bool  // a transaction holds this line (blocking directory / MSHR)
	State   uint8 // protocol state id; 0 = invalid / not yet filled
	Meta    L
}

// Cache is a set-associative array indexed by block address, stored as
// two pointer-free structures. Tag records (Way) live in per-set slots:
// dir maps each set to its slot, and a set is handed the next slot on
// its first Victim. A 256-tile machine declares hundreds of MB of
// nominal capacity and a tile reaches only the sets its home-select
// bits leave it, so storage follows the sets a run touches; a lookup
// into a set with no slot is a miss by construction, which keeps
// laziness invisible to replacement order and simulation results.
// Slots and data blocks both come from slabs of fixed-size blocks that
// never move, so *Way pointers and Block slices stay valid as the
// slabs grow: a way is handed a data block on its first Install and
// keeps it for life.
type Cache[L any] struct {
	dir       []uint32     // set index → slot + 1; 0 until the set's first Victim
	slots     [][]Way[L]   // fixed-size blocks of 1<<slotShift sets each, never moved
	slotsUsed uint32       // slots handed out
	slotShift uint         // slot >> slotShift = slots block
	slab      []*slabChunk // fixed-size, never moved: Block slices stay valid as it grows
	slabUsed  uint32       // blocks handed out
	setMask   uint64
	perSet    int
	useClock  int64
}

// slotBlockSets is the slot slab's growth step in sets (fewer when the
// cache has fewer sets). Slots are handed out densely, so only the last
// block is ever part empty: 16 sets of a 16-way L2 tile is 256 tag
// records, enough to amortize the allocation, and exactly what a 64-core
// tile, which reaches one set in 64, installs into.
const slotBlockSets = 16

// slabBlocks is the data slab's growth step: 16 KiB of data per
// allocation, half a Table 2 L1, 1/64 of an L2 tile.
const (
	slabShift  = 8
	slabBlocks = 1 << slabShift
)

type slabChunk [slabBlocks][config.BlockSize]byte

// PointerFree reports whether a value of type t holds no pointer
// anywhere inside it: the property of Way[L] that keeps way arrays out
// of GC scans. Protocol packages pin it for their line types in tests.
func PointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return false
	case reflect.Array:
		return PointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !PointerFree(t.Field(i).Type) {
				return false
			}
		}
	}
	return true
}

// NewCache builds a cache of sizeBytes capacity with the given
// associativity, 64-byte blocks. Only the set directory is allocated
// here, 4 bytes a set; tag slots and data blocks arrive with the first
// install into a set and a way. The geometry panics are
// programmer-error asserts: configurations from outside the program are
// refused by config.System.Validate first.
func NewCache[L any](sizeBytes, ways int) *Cache[L] {
	if sizeBytes <= 0 || ways <= 0 {
		panic("memsys: invalid cache geometry")
	}
	blocks := sizeBytes / config.BlockSize
	numSets := blocks / ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("memsys: set count %d not a power of two", numSets))
	}
	shift := uint(0)
	for 1<<shift < min(slotBlockSets, numSets) {
		shift++
	}
	return &Cache[L]{
		dir:       make([]uint32, numSets),
		setMask:   uint64(numSets - 1),
		perSet:    ways,
		slotShift: shift,
	}
}

// Sets reports the number of sets.
func (c *Cache[L]) Sets() int { return len(c.dir) }

// setFor returns the ways of addr's set, or nil when the set has never
// been installed into (every lookup outcome on a nil set — miss, no
// victim conflict, nothing busy — matches an all-invalid set).
func (c *Cache[L]) setFor(addr uint64) []Way[L] {
	h := c.dir[(addr>>config.BlockShift)&c.setMask]
	if h == 0 {
		return nil
	}
	return c.slot(h - 1)
}

// setForAlloc is setFor on the install path: it hands addr's set the
// next slot when it has none.
func (c *Cache[L]) setForAlloc(addr uint64) []Way[L] {
	h := &c.dir[(addr>>config.BlockShift)&c.setMask]
	if *h == 0 {
		if c.slotsUsed>>c.slotShift == uint32(len(c.slots)) {
			c.slots = append(c.slots, make([]Way[L], c.perSet<<c.slotShift))
		}
		c.slotsUsed++
		*h = c.slotsUsed
	}
	return c.slot(*h - 1)
}

// slot returns the ways of slot i.
func (c *Cache[L]) slot(i uint32) []Way[L] {
	base := int(i&(1<<c.slotShift-1)) * c.perSet
	return c.slots[i>>c.slotShift][base : base+c.perSet]
}

// Lookup returns the way holding addr and refreshes its LRU state, or
// nil on miss.
func (c *Cache[L]) Lookup(addr uint64) *Way[L] {
	addr = config.BlockAddr(addr)
	set := c.setFor(addr)
	for i := range set {
		if w := &set[i]; w.Valid && w.Tag == addr {
			c.useClock++
			w.lastUse = c.useClock
			return w
		}
	}
	return nil
}

// Peek returns the way holding addr without touching LRU state.
func (c *Cache[L]) Peek(addr uint64) *Way[L] {
	addr = config.BlockAddr(addr)
	set := c.setFor(addr)
	for i := range set {
		if w := &set[i]; w.Valid && w.Tag == addr {
			return w
		}
	}
	return nil
}

// Victim returns the way to allocate addr into: an invalid way if one
// exists, otherwise the least recently used non-busy way. It returns nil
// if every way in the set is busy (the caller must retry later).
// The returned way may still hold a valid line that needs eviction.
func (c *Cache[L]) Victim(addr uint64) *Way[L] {
	var lru *Way[L]
	set := c.setForAlloc(config.BlockAddr(addr))
	for i := range set {
		w := &set[i]
		if w.Busy {
			continue
		}
		if !w.Valid {
			return w
		}
		if lru == nil || w.lastUse < lru.lastUse {
			lru = w
		}
	}
	return lru
}

// Block returns w's data block: a 64-byte window into the slab that
// stays valid, and keeps aliasing the same line, for the cache's
// lifetime. w must have been installed at least once; a never-filled
// way has no block and the index below panics.
func (c *Cache[L]) Block(w *Way[L]) []byte {
	h := w.blk - 1
	return c.slab[h>>slabShift][h&(slabBlocks-1)][:]
}

// Install claims way for addr, resetting data, state and metadata to
// zero values. The caller is responsible for having evicted any prior
// line.
// A way's first Install takes the next slab block; later ones clear the
// block it already holds, so there is no free list to manage.
func (c *Cache[L]) Install(w *Way[L], addr uint64) {
	w.Tag = config.BlockAddr(addr)
	w.Valid = true
	w.Busy = false
	w.State = 0
	if w.blk == 0 {
		if c.slabUsed>>slabShift == uint32(len(c.slab)) {
			c.slab = append(c.slab, new(slabChunk))
		}
		c.slabUsed++
		w.blk = c.slabUsed
	} else {
		clear(c.Block(w))
	}
	var zero L
	w.Meta = zero
	c.useClock++
	w.lastUse = c.useClock
}

// Invalidate drops the line held by w. The way keeps its data block
// for its next Install.
func (c *Cache[L]) Invalidate(w *Way[L]) {
	w.Valid = false
	w.Busy = false
	w.State = 0
	var zero L
	w.Meta = zero
}

// AnyBusy reports whether any way in addr's set is transaction-busy.
func (c *Cache[L]) AnyBusy(addr uint64) bool {
	set := c.setFor(config.BlockAddr(addr))
	for i := range set {
		if set[i].Busy {
			return true
		}
	}
	return false
}

// Memory is the off-chip backing store: an infinite sparse block store
// with a deterministic per-address latency in [Base, Base+Spread).
type Memory struct {
	blocks map[uint64][]byte
	Base   sim.Cycle
	Spread sim.Cycle

	Reads  stats.Counter
	Writes stats.Counter
}

// NewMemory builds a memory with the paper's latency band by default
// (120–230 cycles, Table 2).
func NewMemory() *Memory {
	m := &Memory{
		blocks: make(map[uint64][]byte),
		Base:   120,
		Spread: 110,
	}
	m.Reads.SetName("mem.reads")
	m.Writes.SetName("mem.writes")
	return m
}

// Stats reports total block reads and writes.
func (m *Memory) Stats() (reads, writes int64) { return m.Reads.Value(), m.Writes.Value() }

// Counters returns the access counters for metrics-registry
// registration.
func (m *Memory) Counters() []*stats.Counter { return []*stats.Counter{&m.Reads, &m.Writes} }

// Latency reports the deterministic access latency for addr.
func (m *Memory) Latency(addr uint64) sim.Cycle {
	if m.Spread <= 0 {
		return m.Base
	}
	h := (addr >> config.BlockShift) * 0x9E3779B97F4A7C15
	return m.Base + sim.Cycle(h%uint64(m.Spread))
}

// ReadBlock copies the block at addr into dst (allocating zeroes for
// untouched memory).
func (m *Memory) ReadBlock(addr uint64, dst []byte) {
	addr = config.BlockAddr(addr)
	m.Reads.Inc()
	if b, ok := m.blocks[addr]; ok {
		copy(dst, b)
		return
	}
	for i := range dst {
		dst[i] = 0
	}
}

// WriteBlock stores a copy of src as the block at addr.
func (m *Memory) WriteBlock(addr uint64, src []byte) {
	m.Writes.Inc()
	copy(m.block(addr), src)
}

// ReadWord returns the 8-byte little-endian word at addr (8-aligned).
func (m *Memory) ReadWord(addr uint64) uint64 {
	b, ok := m.blocks[config.BlockAddr(addr)]
	if !ok {
		return 0
	}
	return GetWord(b, addr)
}

// WriteWord stores an 8-byte little-endian word at addr (8-aligned),
// bypassing latency modelling; used for initial state setup.
func (m *Memory) WriteWord(addr uint64, v uint64) {
	PutWord(m.block(addr), addr, v)
}

// block returns the stored block containing addr, allocating a zeroed
// one on first touch.
func (m *Memory) block(addr uint64) []byte {
	blk := config.BlockAddr(addr)
	b, ok := m.blocks[blk]
	if !ok {
		b = make([]byte, config.BlockSize)
		m.blocks[blk] = b
	}
	return b
}

// GetWord reads the 8-byte word containing addr from block data.
func GetWord(block []byte, addr uint64) uint64 {
	off := addr & (config.BlockSize - 1) &^ 7
	return binary.LittleEndian.Uint64(block[off : off+8])
}

// PutWord writes the 8-byte word containing addr into block data.
func PutWord(block []byte, addr uint64, v uint64) {
	off := addr & (config.BlockSize - 1) &^ 7
	binary.LittleEndian.PutUint64(block[off:off+8], v)
}
