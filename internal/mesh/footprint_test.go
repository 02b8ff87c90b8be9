package mesh

import (
	"testing"
	"unsafe"
)

// TestDeliveryFootprint pins the host bytes of the pooled record every
// message in flight holds.
func TestDeliveryFootprint(t *testing.T) {
	if got := unsafe.Sizeof(delivery{}); got > 48 {
		t.Errorf("delivery is %d bytes, want at most 48", got)
	}
}
