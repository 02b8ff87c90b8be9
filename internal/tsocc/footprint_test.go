package tsocc

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/memsys"
)

// TestWayFootprint pins the host bytes per cache way at the shipped
// values. A set a run installs into holds one tag record per way it has
// been granted (2, 4, 8, then 16 per L2 set at Table 2's
// associativity), so a widened field grows the host heap in proportion
// to the ways the run installs. A pointer in the record would put every
// grant pool block back into GC scans.
func TestWayFootprint(t *testing.T) {
	if got := unsafe.Sizeof(memsys.Way[l1Line]{}); got != 40 {
		t.Errorf("L1 way record is %d bytes, shipped at 40", got)
	}
	// 40 since the line state moved into the way record's padding: the
	// remaining metadata (coarse vector, ts, owner, two flags) packs
	// into 16 bytes.
	if got := unsafe.Sizeof(memsys.Way[l2Line]{}); got != 40 {
		t.Errorf("L2 way record is %d bytes, shipped at 40", got)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(memsys.Way[l1Line]{}), reflect.TypeOf(memsys.Way[l2Line]{})} {
		if !memsys.PointerFree(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}
