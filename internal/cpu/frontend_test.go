package cpu

import (
	"testing"

	"repro/internal/sim"
)

// storePort accepts or declines Stores on demand and records the ones
// it accepts; its other CorePort methods are unused.
type storePort struct {
	fakePort
	decline bool
	stores  [][2]uint64
}

func (p *storePort) Store(_ sim.Cycle, addr, val uint64, _ func()) bool {
	if p.decline {
		return false
	}
	p.stores = append(p.stores, [2]uint64{addr, val})
	return true
}

// TestWriteBufferRing drives the ring round its wrap point: FIFO
// drain one store at a time, youngest-first forwarding, the full and
// empty edges, and a declined head that waits (not Ready) for a retry.
func TestWriteBufferRing(t *testing.T) {
	b := NewWriteBuffer(3)
	p := &storePort{}
	val := uint64(0)
	drainOne := func() {
		b.Drain(0, p, func() {})
		if !b.InFlight() || b.Ready() {
			t.Fatal("issued head not in flight")
		}
		b.Drain(0, p, func() {}) // in flight: no second issue
		b.Pop()
	}
	for round := 0; round < 5; round++ {
		for !b.Full() {
			val++
			b.Push(8*(val%2), val) // two addresses, alternating
		}
		if v, ok := b.Forward(8 * (val % 2)); !ok || v != val {
			t.Fatalf("forward: %d, %v; want the youngest store %d", v, ok, val)
		}
		if v, ok := b.Forward(8 * ((val + 1) % 2)); !ok || v != val-1 {
			t.Fatalf("forward: %d, %v; want %d", v, ok, val-1)
		}
		if _, ok := b.Forward(0x100); ok {
			t.Fatal("forwarded an address never stored")
		}
		p.decline = true
		if b.Drain(0, p, func() {}); b.Ready() || b.InFlight() {
			t.Fatal("a declined head must wait for its retry")
		}
		p.decline = false
		drainOne()
		drainOne()
	}
	for !b.Empty() {
		drainOne()
	}
	if uint64(len(p.stores)) != val {
		t.Fatalf("%d stores drained, want %d", len(p.stores), val)
	}
	for i, s := range p.stores {
		if v := uint64(i + 1); s != [2]uint64{8 * (v % 2), v} {
			t.Fatalf("drain order %v", p.stores)
		}
	}
}
