// Package memsys provides the storage substrate: generic set-associative
// cache arrays with LRU replacement (holding functional data blocks, so
// stale reads return genuinely stale values), and the backing memory
// model with the paper's 120–230 cycle latency band.
package memsys

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
// the grant blocks are too, so the GC never scans cache storage — at 64+
// cores the tag records are most of the live heap. Records are
// allocated only for the ways a set has been granted (Cache).
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
// pointer-free structures. A set receives its tag records (Way) in
// grants that double its capacity, in way-index order: grant 0 is ways
// [0, 2) and grant k > 0 ways [2^k, 2^(k+1)), each capped at the
// associativity, so a 16-way set holds 0, 2, 4, 8 or 16 records and a
// 4-way set 0, 2 or 4. A way not yet granted is invalid and not busy,
// and Victim takes the first invalid, non-busy way in index order, so it
// grants the next step only when every granted way is valid or busy:
// which way is picked, and so every simulation result, is what a fully
// allocated set would give. A 256-tile machine declares hundreds of MB
// of nominal capacity, a tile reaches only the sets its home-select bits
// leave it, and the miss workloads fill about half of a 16-way set, so
// storage follows the ways a run installs.
//
// dir holds, per set, its grant count and a handle numbered in the
// order sets were first granted; grant k of set handle h sits at place h
// of pool k. A pool grows by fixed-size blocks of a few sets' grants,
// allocated when the first of those sets is granted one, so a grant
// that few sets reach costs little, and blocks never move, so *Way
// pointers stay valid. Data blocks come from a slab of the same kind,
// so Block slices stay valid too: a way is handed a data block on its
// first Install and keeps it for life.
type Cache[L any] struct {
	dir      []uint32       // set index → grants<<handleBits | set handle; 0 until the set's first Victim
	pools    []grantPool[L] // pools[k] holds grant k of every set; nil until the first Victim
	sets     uint32         // set handles handed out
	slab     []*slabChunk   // fixed-size, never moved: Block slices stay valid as it grows
	slabUsed uint32         // blocks handed out
	setMask  uint64
	perSet   int
	useClock int64
}

// handleBits is the width of the set handle in a dir entry; the set's
// grant count sits above it. Validate caps an array at 2^18 sets.
const handleBits = 24

// grantPool holds grant k of every set: block b holds it for set handles
// [b<<shift, (b+1)<<shift) and is allocated when the first of them is
// granted it.
type grantPool[L any] struct {
	ways        int    // records per grant
	shift, mask uint32 // set handle >> shift = block, & mask = place in it
	blocks      [][]Way[L]
}

// poolBlockWays is a pool block's size in tag records (fewer when the
// cache has fewer sets, one grant when a grant is larger): a block of a
// grant that few sets reach costs a few sets' worth.
const poolBlockWays = 32

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
// here, 4 bytes a set; tag records and data blocks arrive with the first
// installs into a set and a way. The geometry panics are
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
	if numSets > 1<<handleBits {
		panic(fmt.Sprintf("memsys: %d sets exceed the set directory's %d-bit handles", numSets, handleBits))
	}
	return &Cache[L]{
		dir:     make([]uint32, numSets),
		setMask: uint64(numSets - 1),
		perSet:  ways,
	}
}

// of returns set handle s's grant from pool p.
func (p *grantPool[L]) of(s uint32) []Way[L] {
	base := int(s&p.mask) * p.ways
	return p.blocks[s>>p.shift][base : base+p.ways]
}

// granted splits set entry e into the set's handle and the pools it
// holds grants from.
func (c *Cache[L]) granted(e uint32) (uint32, []grantPool[L]) {
	return e & (1<<handleBits - 1), c.pools[:e>>handleBits]
}

// Lookup returns the way holding addr and refreshes its LRU state, or
// nil on miss.
func (c *Cache[L]) Lookup(addr uint64) *Way[L] {
	addr = config.BlockAddr(addr)
	s, pools := c.granted(c.dir[(addr>>config.BlockShift)&c.setMask])
	for k := range pools {
		g := pools[k].of(s)
		for i := range g {
			if w := &g[i]; w.Valid && w.Tag == addr {
				c.useClock++
				w.lastUse = c.useClock
				return w
			}
		}
	}
	return nil
}

// Peek returns the way holding addr without touching LRU state.
func (c *Cache[L]) Peek(addr uint64) *Way[L] {
	addr = config.BlockAddr(addr)
	s, pools := c.granted(c.dir[(addr>>config.BlockShift)&c.setMask])
	for k := range pools {
		g := pools[k].of(s)
		for i := range g {
			if w := &g[i]; w.Valid && w.Tag == addr {
				return w
			}
		}
	}
	return nil
}

// Victim returns the way to allocate addr into: an invalid way if one
// exists, otherwise the least recently used non-busy way. It returns nil
// if every way in the set is busy (the caller must retry later).
// The returned way may still hold a valid line that needs eviction.
// Ungranted ways count as invalid: when no granted way is invalid and
// free, a set that is not full is granted its next step, and that
// grant's first way is the victim.
func (c *Cache[L]) Victim(addr uint64) *Way[L] {
	e := &c.dir[(addr>>config.BlockShift)&c.setMask]
	if *e == 0 {
		*e = c.newSet()
	}
	s, pools := c.granted(*e)
	var lru *Way[L]
	for k := range pools {
		g := pools[k].of(s)
		for i := range g {
			w := &g[i]
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
	}
	if n := len(pools); n < len(c.pools) {
		*e += 1 << handleBits
		return &c.grant(s, n)[0]
	}
	return lru
}

// newSet hands out the next set handle, with no grants yet; the pools
// are set up on the cache's first set.
func (c *Cache[L]) newSet() uint32 {
	if c.pools == nil {
		c.pools = []grantPool[L]{{ways: min(2, c.perSet)}}
		for held := 2; held < c.perSet; held *= 2 {
			c.pools = append(c.pools, grantPool[L]{ways: min(held, c.perSet-held)})
		}
		for k := range c.pools {
			p := &c.pools[k]
			p.shift = uint32(bits.Len(uint(min(len(c.dir), max(1, poolBlockWays/p.ways)))) - 1)
			p.mask = 1<<p.shift - 1
		}
	}
	c.sets++
	return c.sets - 1
}

// grant returns grant k of set handle s, allocating its pool block if
// it has none.
func (c *Cache[L]) grant(s uint32, k int) []Way[L] {
	p := &c.pools[k]
	b := int(s >> p.shift)
	for len(p.blocks) <= b {
		p.blocks = append(p.blocks, nil)
	}
	if p.blocks[b] == nil {
		p.blocks[b] = make([]Way[L], p.ways<<p.shift)
	}
	return p.of(s)
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
	s, pools := c.granted(c.dir[(addr>>config.BlockShift)&c.setMask])
	for k := range pools {
		g := pools[k].of(s)
		for i := range g {
			if g[i].Busy {
				return true
			}
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
