package memsys

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/config"
)

// refCache is the independent statement of what Cache promises: a map
// from set index to that set's lines, each line carrying its own copy
// of the data, with the replacement policy written the obvious way
// (first invalid way, else the least recently used way that is not
// busy). It knows nothing of grants, handles or slabs.
type refCache struct {
	sets  map[int][]refLine
	nSets int
	ways  int
	clock int64
}

type refLine struct {
	tag     uint64
	valid   bool
	busy    bool
	lastUse int64
	data    [config.BlockSize]byte
}

func newRefCache(sizeBytes, ways int) *refCache {
	return &refCache{sets: map[int][]refLine{}, nSets: sizeBytes / config.BlockSize / ways, ways: ways}
}

func (r *refCache) set(addr uint64) []refLine {
	s := int(addr>>config.BlockShift) % r.nSets
	if r.sets[s] == nil {
		r.sets[s] = make([]refLine, r.ways)
	}
	return r.sets[s]
}

// find returns the way index holding addr, or -1.
func (r *refCache) find(addr uint64, touch bool) int {
	set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == config.BlockAddr(addr) {
			if touch {
				r.clock++
				set[i].lastUse = r.clock
			}
			return i
		}
	}
	return -1
}

func (r *refCache) victim(addr uint64) int {
	set, lru := r.set(addr), -1
	for i := range set {
		switch {
		case set[i].busy:
		case !set[i].valid:
			return i
		case lru < 0 || set[i].lastUse < set[lru].lastUse:
			lru = i
		}
	}
	return lru
}

func (r *refCache) install(addr uint64, i int) *refLine {
	r.clock++
	l := &r.set(addr)[i]
	*l = refLine{tag: config.BlockAddr(addr), valid: true, lastUse: r.clock}
	return l
}

// lruOrder lists the valid way indices of a set, least recently used
// first.
func lruOrder(n int, valid func(i int) bool, lastUse func(i int) int64) []int {
	var order []int
	for i := 0; i < n; i++ {
		if valid(i) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool { return lastUse(order[a]) < lastUse(order[b]) })
	return order
}

// setWays lists the ways addr's set of c has been granted, in way-index
// order: the concatenation of its grants (nil for a set with none).
func setWays(c *Cache[meta], addr uint64) []*Way[meta] {
	s, pools := c.granted(c.dir[(addr>>config.BlockShift)&c.setMask])
	var ways []*Way[meta]
	for k := range pools {
		g := pools[k].of(s)
		for i := range g {
			ways = append(ways, &g[i])
		}
	}
	return ways
}

// wayIndex locates w inside addr's set of c (-1 for nil).
func wayIndex(c *Cache[meta], addr uint64, w *Way[meta]) int {
	if w == nil {
		return -1
	}
	if i := slices.Index(setWays(c, addr), w); i >= 0 {
		return i
	}
	panic("way returned for an address outside its set")
}

// onSchedule reports whether a set of the given associativity can hold
// n granted ways: n is reached from 0 by steps that each add
// min(max(held, 2), ways - held).
func onSchedule(n, ways int) bool {
	held := 0
	for held < n {
		held += min(max(held, 2), ways-held)
	}
	return held == n
}

// distinctGrants checks that the set handles in c's directory are the
// first c.sets numbers, each held once, and that no two sets hold the
// same tag record.
func distinctGrants(c *Cache[meta]) error {
	handles := map[uint32]int{}
	records := map[*Way[meta]]int{}
	for s, e := range c.dir {
		if e == 0 {
			continue
		}
		h := e & (1<<handleBits - 1)
		if prev, dup := handles[h]; dup || h >= c.sets {
			return fmt.Errorf("set %d holds handle %d: held by set %d (%v), %d handed out", s, h, prev, dup, c.sets)
		}
		handles[h] = s
		for _, w := range setWays(c, uint64(s)<<config.BlockShift) {
			if prev, dup := records[w]; dup {
				return fmt.Errorf("sets %d and %d share a tag record", prev, s)
			}
			records[w] = s
		}
	}
	if len(handles) != int(c.sets) {
		return fmt.Errorf("%d set handles handed out, %d sets hold one", c.sets, len(handles))
	}
	return nil
}

// sameState compares every set of c with the referee: valid set, tags,
// busy bits, data of every valid line, LRU order; checks that each set's
// granted ways are an index-order prefix on the doubling schedule, that
// the referee holds no line beyond it, and that no two sets hold the
// same grant and no two ways the same slab block.
func sameState(c *Cache[meta], r *refCache) error {
	if err := distinctGrants(c); err != nil {
		return err
	}
	owners := map[uint32]int{}
	for s := 0; s < r.nSets; s++ {
		addr := uint64(s) << config.BlockShift
		set, ref := setWays(c, addr), r.set(addr)
		if !onSchedule(len(set), r.ways) {
			return fmt.Errorf("set %d: %d ways granted, off the doubling schedule for %d ways", s, len(set), r.ways)
		}
		for i := len(set); i < len(ref); i++ {
			if ref[i].valid || ref[i].busy {
				return fmt.Errorf("set %d: referee holds a line in way %d, past the %d ways granted", s, i, len(set))
			}
		}
		for i, w := range set {
			l := &ref[i]
			if w.Valid != l.valid || w.Busy != l.busy || (w.Valid && w.Tag != l.tag) {
				return fmt.Errorf("set %d way %d: cache {valid %v busy %v tag %#x}, referee {valid %v busy %v tag %#x}",
					s, i, w.Valid, w.Busy, w.Tag, l.valid, l.busy, l.tag)
			}
			if w.blk != 0 {
				at := s*r.ways + i
				if prev, dup := owners[w.blk]; dup {
					return fmt.Errorf("set %d way %d and set %d way %d share slab block %d",
						prev/r.ways, prev%r.ways, s, i, w.blk-1)
				}
				owners[w.blk] = at
			}
			if w.Valid && !bytes.Equal(c.Block(w), l.data[:]) {
				return fmt.Errorf("set %d way %d: data differs from the referee's copy", s, i)
			}
		}
		got := lruOrder(len(set), func(i int) bool { return set[i].Valid }, func(i int) int64 { return set[i].lastUse })
		want := lruOrder(len(ref), func(i int) bool { return ref[i].valid }, func(i int) int64 { return ref[i].lastUse })
		if !slices.Equal(got, want) {
			return fmt.Errorf("set %d: LRU order %v, referee %v", s, got, want)
		}
	}
	if int(c.slabUsed) != len(owners) {
		return fmt.Errorf("slab handed out %d blocks, %d ways hold one", c.slabUsed, len(owners))
	}
	return nil
}

// TestCacheMatchesReferee drives random operation sequences through
// Cache and the map-backed referee and compares the complete state
// after every operation.
func TestCacheMatchesReferee(t *testing.T) {
	for _, g := range []struct{ size, ways, ops int }{
		{64, 1, 2000},        // one line
		{4 * 64, 4, 4000},    // one set
		{8 * 64, 2, 4000},    // four sets
		{4 << 10, 4, 6000},   // config.Small's L2 tile
		{16 << 10, 2, 3000},  // 128 sets: eight pool blocks, one full slab chunk
		{48 << 10, 3, 3000},  // 768 blocks: the slab grows to three chunks
		{32 << 10, 16, 3000}, // Table 2 associativity
	} {
		for seed := int64(1); seed <= 3; seed++ {
			g, seed := g, seed
			t.Run(fmt.Sprintf("%dB-%dway/seed%d", g.size, g.ways, seed), func(t *testing.T) {
				runReferee(t, g.size, g.ways, g.ops, seed)
			})
		}
	}
}

// opSource supplies runReferee's choices: a seeded generator, or a
// fuzzer's bytes.
type opSource interface {
	Intn(n int) int
	Read(p []byte) (int, error)
}

// byteSource reads choices from a fuzzer's bytes, one a draw below 256
// and two above; past the end every draw is 0. Install's data fills do
// not consume input: they count up, so every filled block differs.
type byteSource struct {
	data []byte
	fill byte
}

func (b *byteSource) Intn(n int) int {
	v := b.next()
	if n > 256 {
		v = v<<8 | b.next()
	}
	return v % n
}

func (b *byteSource) next() int {
	if len(b.data) == 0 {
		return 0
	}
	v := int(b.data[0])
	b.data = b.data[1:]
	return v
}

func (b *byteSource) Read(p []byte) (int, error) {
	for i := range p {
		b.fill++
		p[i] = b.fill
	}
	return len(p), nil
}

// FuzzCache drives the referee comparison with a fuzzer-chosen geometry
// — 1 to 16 ways, powers of two or not, 1 to 256 sets — and op
// sequence: the bytes choose each operation and address.
func FuzzCache(f *testing.F) {
	f.Add(uint8(3), uint8(0), []byte{})
	f.Add(uint8(15), uint8(2), bytes.Repeat([]byte{5, 0, 4, 0, 6, 0}, 60))
	f.Add(uint8(4), uint8(8), []byte("\x07\x00\x01\x00\x09\x00\x03\x00\x00\x00\x08\x00"))
	f.Fuzz(func(t *testing.T, ways, setBits uint8, ops []byte) {
		w, sets := 1+int(ways)%16, 1<<(setBits%9)
		runOps(t, sets*w*config.BlockSize, w, len(ops)/3, &byteSource{data: ops})
	})
}

func runReferee(t *testing.T, size, ways, ops int, seed int64) {
	runOps(t, size, ways, ops, rand.New(rand.NewSource(seed)))
}

// runOps drives ops operations chosen by rng through a Cache and the
// referee, comparing their complete state after each.
func runOps(t *testing.T, size, ways, ops int, rng opSource) {
	c, r := NewCache[meta](size, ways), newRefCache(size, ways)
	blocks := size / config.BlockSize
	pick := func() uint64 { // 4x the capacity, any byte offset
		return uint64(rng.Intn(4*blocks))<<config.BlockShift | uint64(rng.Intn(config.BlockSize))
	}
	for op := 0; op < ops; op++ {
		addr := pick()
		what := ""
		switch k := rng.Intn(10); {
		case k < 2:
			what = "Lookup"
			if got, want := wayIndex(c, addr, c.Lookup(addr)), r.find(addr, true); got != want {
				t.Fatalf("op %d Lookup(%#x): way %d, referee %d", op, addr, got, want)
			}
		case k < 3:
			what = "Peek"
			if got, want := wayIndex(c, addr, c.Peek(addr)), r.find(addr, false); got != want {
				t.Fatalf("op %d Peek(%#x): way %d, referee %d", op, addr, got, want)
			}
		case k < 7:
			what = "Victim+Install"
			if r.find(addr, false) >= 0 {
				continue // a set never holds one tag twice
			}
			w := c.Victim(addr)
			i := r.victim(addr)
			if got := wayIndex(c, addr, w); got != i {
				t.Fatalf("op %d Victim(%#x): way %d, referee %d", op, addr, got, i)
			}
			if w == nil {
				continue
			}
			w.Meta.tag = op
			c.Install(w, addr)
			l := r.install(addr, i)
			blk := c.Block(w)
			if w.Meta.tag != 0 || !bytes.Equal(blk, l.data[:]) {
				t.Fatalf("op %d Install(%#x): way not zeroed (meta %d, block %x)", op, addr, w.Meta.tag, blk)
			}
			rng.Read(blk)
			copy(l.data[:], blk)
		case k < 8:
			what = "Invalidate"
			w, i := c.Peek(addr), r.find(addr, false)
			if w == nil {
				continue
			}
			c.Invalidate(w)
			l := &r.set(addr)[i]
			l.valid, l.busy = false, false
		case k < 9:
			what = "Busy"
			w, i := c.Peek(addr), r.find(addr, false)
			if w == nil {
				continue
			}
			w.Busy = !w.Busy
			r.set(addr)[i].busy = w.Busy
		default:
			what = "AnyBusy"
			want := false
			for _, l := range r.set(addr) {
				want = want || l.busy
			}
			if got := c.AnyBusy(addr); got != want {
				t.Fatalf("op %d AnyBusy(%#x) = %v, referee %v", op, addr, got, want)
			}
		}
		if err := sameState(c, r); err != nil {
			t.Fatalf("after op %d (%s %#x): %v", op, what, addr, err)
		}
	}
	if max := (blocks + slabBlocks - 1) / slabBlocks; len(c.slab) > max {
		t.Fatalf("slab grew to %d chunks for %d blocks of capacity", len(c.slab), blocks)
	}
}

// TestBlockSurvivesSlabGrowth: a Block slice taken while the slab had
// one chunk keeps aliasing its line after the slab has grown tenfold.
func TestBlockSurvivesSlabGrowth(t *testing.T) {
	c := NewCache[meta](1<<20, 16)
	install := func(addr uint64) *Way[meta] {
		w := c.Victim(addr)
		c.Install(w, addr)
		return w
	}
	w0 := install(0)
	early := c.Block(w0)
	early[5] = 0x5A
	if len(c.slab) != 1 {
		t.Fatalf("slab has %d chunks after one install", len(c.slab))
	}
	for b := 1; b < 10*slabBlocks+1; b++ {
		install(uint64(b) << config.BlockShift)
	}
	if len(c.slab) < 10 {
		t.Fatalf("slab has %d chunks after %d installs", len(c.slab), 10*slabBlocks+1)
	}
	if c.Lookup(0) != w0 {
		t.Fatal("first line was displaced; the test needs it resident")
	}
	now := c.Block(w0)
	if &now[0] != &early[0] || now[5] != 0x5A {
		t.Fatal("the way's block moved while the slab grew")
	}
	early[6] = 0xA5
	if c.Block(w0)[6] != 0xA5 {
		t.Fatal("a write through the early slice did not reach the line")
	}
}

// TestGrantsFollowInstalledWays: a cache that is never installed into
// allocates only its set directory, however many lookups it serves, and
// a set of a 1 MiB, 16-way cache holds tag records for 2, 4, 8 or 16
// ways as 1, 3, 8 or 16 lines are installed into it.
func TestGrantsFollowInstalledWays(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCache[meta](1<<20, 16)
	runtime.ReadMemStats(&after)
	if got, dir := after.TotalAlloc-before.TotalAlloc, uint64(4*c.Sets()); got > dir+256 {
		t.Errorf("NewCache allocated %d bytes; its %d-set directory is %d", got, c.Sets(), dir)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for s := 0; s < c.Sets(); s++ {
			addr := uint64(s) << config.BlockShift
			c.Lookup(addr)
			c.Peek(addr)
			c.AnyBusy(addr)
		}
	}); allocs != 0 || c.pools != nil || c.sets != 0 {
		t.Fatalf("lookups into an empty cache: %v allocs, %d grant pools, %d set handles", allocs, len(c.pools), c.sets)
	}
	for i, tc := range []struct{ installs, records int }{{1, 2}, {3, 4}, {8, 8}, {16, 16}} {
		set := uint64(i * 7)
		for w := 0; w < tc.installs; w++ {
			addr := (uint64(w)*uint64(c.Sets()) + set) << config.BlockShift
			c.Install(c.Victim(addr), addr)
		}
		if got := len(setWays(c, set<<config.BlockShift)); got != tc.records {
			t.Errorf("%d installs into a set: it holds %d tag records, want %d", tc.installs, got, tc.records)
		}
	}
	if err := distinctGrants(c); err != nil {
		t.Fatal(err)
	}
}

// TestVictimGrantsPastBusyWays: when every granted way of a set that is
// not full is busy, Victim grants the set its next step and returns that
// grant's first way; only a full set of busy ways has no victim.
func TestVictimGrantsPastBusyWays(t *testing.T) {
	c := NewCache[meta](16*64, 16) // one set, sixteen ways
	for i := 0; i < 16; i++ {
		addr := uint64(i) << config.BlockShift
		w := c.Victim(addr)
		if w == nil {
			t.Fatalf("install %d: no victim with %d of 16 ways busy", i, i)
		}
		if w.Valid || w.Busy || wayIndex(c, addr, w) != i {
			t.Fatalf("install %d: victim is way %d (valid %v busy %v), want the fresh way %d",
				i, wayIndex(c, addr, w), w.Valid, w.Busy, i)
		}
		c.Install(w, addr)
		w.Busy = true
	}
	if c.Victim(16<<config.BlockShift) != nil {
		t.Fatal("a full set of busy ways gave a victim")
	}
}

// TestWaySurvivesGrantGrowth: a *Way from a set's first grant is still
// the cache's way for its line after that set has been granted its later
// steps and ten times as many sets as one pool block holds have been
// granted theirs.
func TestWaySurvivesGrantGrowth(t *testing.T) {
	c := NewCache[meta](1<<20, 16)
	w0 := c.Victim(0)
	c.Install(w0, 0)
	w0.Meta.tag = 7
	for w := 1; w < 16; w++ { // the rest of set 0: grants 1, 2 and 3
		addr := uint64(w*c.Sets()) << config.BlockShift
		c.Install(c.Victim(addr), addr)
	}
	sets := 10 << c.pools[0].shift // ten blocks of first grants
	for s := 1; s <= sets; s++ {
		addr := uint64(s) << config.BlockShift
		c.Install(c.Victim(addr), addr)
	}
	if len(c.pools[0].blocks) < 10 {
		t.Fatalf("%d first-grant blocks after %d sets", len(c.pools[0].blocks), sets+1)
	}
	if c.Lookup(0) != w0 || w0.Tag != 0 || !w0.Valid || w0.Meta.tag != 7 {
		t.Fatal("the early way no longer holds its line")
	}
	w0.Meta.tag = 9
	if c.Peek(0).Meta.tag != 9 {
		t.Fatal("a write through the early way did not reach the line")
	}
}
