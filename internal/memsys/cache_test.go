package memsys

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/config"
)

type meta struct{ tag int }

// Sets reports the number of sets; only tests ask.
func (c *Cache[L]) Sets() int { return len(c.dir) }

func TestCacheGeometry(t *testing.T) {
	c := NewCache[meta](32<<10, 4) // 32KB, 4-way, 64B lines
	if c.Sets() != 128 || c.perSet != 4 {
		t.Fatalf("sets=%d ways=%d, want 128/4", c.Sets(), c.perSet)
	}
}

func TestCacheNonPow2SetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCache[meta](3*64*4, 4) // 3 sets
}

func TestLookupMissThenInstall(t *testing.T) {
	c := NewCache[meta](1<<10, 2)
	const addr = 0x1040
	if c.Lookup(addr) != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	w := c.Victim(addr)
	if w == nil || w.Valid {
		t.Fatal("victim should be an invalid way")
	}
	c.Install(w, addr)
	if got := c.Lookup(addr); got != w {
		t.Fatal("lookup after install failed")
	}
	if got := c.Lookup(addr + 8); got != w {
		t.Fatal("same-block offset should hit the same way")
	}
	if c.Lookup(addr+64) != nil {
		t.Fatal("adjacent block should miss")
	}
}

func TestInstallResetsState(t *testing.T) {
	c := NewCache[meta](1<<10, 2)
	w := c.Victim(0x40)
	c.Install(w, 0x40)
	blk := c.Block(w)
	blk[0] = 0xAB
	w.Meta.tag = 7
	w.Busy = true
	w.State = 3
	c.Install(w, 0x40)
	if c.Block(w)[0] != 0 || w.Meta.tag != 0 || w.Busy || w.State != 0 {
		t.Fatal("install did not reset way state")
	}
	if &c.Block(w)[0] != &blk[0] {
		t.Fatal("re-install moved the way's block")
	}
}

func TestBlockOfNeverInstalledWayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c := NewCache[meta](1<<10, 2)
	c.Block(c.Victim(0x40))
}

func TestLRUVictimSelection(t *testing.T) {
	c := NewCache[meta](2*64, 2) // one set, two ways
	a := c.Victim(0x000)
	c.Install(a, 0x000)
	b := c.Victim(0x040) // maps to the same single set
	c.Install(b, 0x040)
	// Touch a, making b the LRU.
	c.Lookup(0x000)
	v := c.Victim(0x080)
	if v != b {
		t.Fatal("victim should be the least recently used way")
	}
	// Touch b (via lookup), now a is LRU.
	c.Lookup(0x040)
	if v := c.Victim(0x080); v != a {
		t.Fatal("LRU did not follow the second touch")
	}
}

func TestVictimSkipsBusy(t *testing.T) {
	c := NewCache[meta](2*64, 2)
	a := c.Victim(0x000)
	c.Install(a, 0x000)
	a.Busy = true
	b := c.Victim(0x040)
	c.Install(b, 0x040)
	b.Busy = true
	if c.Victim(0x080) != nil {
		t.Fatal("victim must be nil when every way is busy")
	}
	if !c.AnyBusy(0x080) {
		t.Fatal("AnyBusy should see the busy set")
	}
	b.Busy = false
	if c.Victim(0x080) != b {
		t.Fatal("victim should be the only non-busy way")
	}
}

func TestInvalidate(t *testing.T) {
	c := NewCache[meta](1<<10, 2)
	w := c.Victim(0x40)
	c.Install(w, 0x40)
	w.Meta.tag = 9
	w.State = 2
	c.Invalidate(w)
	if w.Valid || w.Meta.tag != 0 || w.State != 0 {
		t.Fatal("invalidate did not clear the way")
	}
	if c.Lookup(0x40) != nil {
		t.Fatal("hit after invalidate")
	}
}

func TestWordRoundTrip(t *testing.T) {
	check := func(addr uint64, val uint64) bool {
		block := make([]byte, config.BlockSize)
		a := addr &^ 7 // 8-aligned
		PutWord(block, a, val)
		return GetWord(block, a) == val
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordsDoNotOverlap(t *testing.T) {
	block := make([]byte, config.BlockSize)
	for i := uint64(0); i < 8; i++ {
		PutWord(block, i*8, i+1)
	}
	for i := uint64(0); i < 8; i++ {
		if got := GetWord(block, i*8); got != i+1 {
			t.Fatalf("word %d = %d, want %d", i, got, i+1)
		}
	}
}

func TestMemoryReadWriteBlock(t *testing.T) {
	m := NewMemory()
	src := make([]byte, config.BlockSize)
	for i := range src {
		src[i] = byte(i)
	}
	m.WriteBlock(0x1000, src)
	dst := make([]byte, config.BlockSize)
	m.ReadBlock(0x1000, dst)
	for i := range dst {
		if dst[i] != byte(i) {
			t.Fatal("block round trip failed")
		}
	}
	// Untouched memory reads as zero.
	m.ReadBlock(0x2000, dst)
	for _, b := range dst {
		if b != 0 {
			t.Fatal("untouched memory not zero")
		}
	}
	if m.Reads.Value() != 2 || m.Writes.Value() != 1 {
		t.Fatalf("reads=%d writes=%d", m.Reads.Value(), m.Writes.Value())
	}
}

func TestMemoryWords(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x1008, 42)
	if got := m.ReadWord(0x1008); got != 42 {
		t.Fatalf("word = %d", got)
	}
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("neighbor word = %d, want 0", got)
	}
}

func TestMemoryLatencyBand(t *testing.T) {
	m := NewMemory() // 120-230 per Table 2
	seen := map[int64]bool{}
	for a := uint64(0); a < 256; a++ {
		lat := int64(m.Latency(a * 64))
		if lat < 120 || lat >= 230 {
			t.Fatalf("latency %d outside [120,230)", lat)
		}
		seen[lat] = true
		if m.Latency(a*64) != m.Latency(a*64) {
			t.Fatal("latency not deterministic")
		}
	}
	if len(seen) < 10 {
		t.Fatalf("latency band has only %d distinct values", len(seen))
	}
}

func TestPointerFree(t *testing.T) {
	type line struct {
		bits [4]uint64
		ts   uint32
		own  int16
		st   uint8
		d    bool
	}
	if !PointerFree(reflect.TypeOf(Way[line]{})) {
		t.Error("a way over a scalar-only line must be pointer-free")
	}
	for _, v := range []any{
		Way[struct{ p *int }]{}, Way[struct{ s []byte }]{}, Way[struct{ s string }]{},
		Way[struct{ m map[int]int }]{}, Way[struct{ f func() }]{}, Way[struct{ i any }]{},
		Way[struct{ c chan int }]{}, Way[struct{ a [2]struct{ p unsafe.Pointer } }]{},
	} {
		if PointerFree(reflect.TypeOf(v)) {
			t.Errorf("%T reported pointer-free", v)
		}
	}
}

// TestWayHoldsNoBlock: the record a set scan reads carries a handle, not
// the 64 data bytes.
func TestWayHoldsNoBlock(t *testing.T) {
	typ := reflect.TypeOf(Way[struct{}]{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Array {
			t.Errorf("Way.%s is an array", f.Name)
		}
	}
	if got := typ.Size(); got != 24 {
		t.Errorf("bare way record is %d bytes, want 24", got)
	}
}
