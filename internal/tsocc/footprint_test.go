package tsocc

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/memsys"
)

// TestWayFootprint pins the host bytes per cache way at the shipped
// values. Prewarm allocates one record per way of the machine (1 Mi L2
// ways at 64 cores), so a widened field is tens of MiB of host heap;
// system.FuzzValidateBuilds' bound assumes no record exceeds 64 bytes.
// A pointer in the record would put every way array back into GC scans.
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
