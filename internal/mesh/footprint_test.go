package mesh

import (
	"testing"
	"unsafe"
)

// TestDeliveryFootprint pins the host bytes per pending delivery. Every
// message in flight is one delivery in the calendar queue, copied on
// schedule, on overflow migration and on pop, so a widened field is
// paid on every send.
func TestDeliveryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(delivery{}); got != 48 {
		t.Errorf("delivery is %d bytes, shipped at 48", got)
	}
}
