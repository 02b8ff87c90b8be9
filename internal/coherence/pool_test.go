package coherence

import (
	"testing"

	"repro/internal/config"
)

func TestMsgPoolRecycles(t *testing.T) {
	var p MsgPool
	m := p.Get()
	if p.News != 1 || p.Gets != 1 {
		t.Fatalf("fresh pool: Gets=%d News=%d", p.Gets, p.News)
	}
	m.Type = MsgDataS
	m.Src, m.Dst, m.Addr = 1, 2, 0x1000
	m.SetData(make([]byte, config.BlockSize))
	dataCap := cap(m.Data)
	p.Put(m)

	m2 := p.Get()
	if m2 != m {
		t.Fatal("pool did not reuse the freed message")
	}
	if p.News != 1 {
		t.Fatalf("reuse allocated: News=%d", p.News)
	}
	// Zeroed on return, buffer capacity preserved.
	if m2.Type != 0 || m2.Src != 0 || m2.Dst != 0 || m2.Addr != 0 || m2.TSValid {
		t.Fatalf("recycled message not zeroed: %+v", m2)
	}
	if len(m2.Data) != 0 || cap(m2.Data) != dataCap {
		t.Fatalf("data buffer: len=%d cap=%d, want 0/%d", len(m2.Data), cap(m2.Data), dataCap)
	}
	m2.SetData([]byte{1, 2, 3})
	if cap(m2.Data) != dataCap {
		t.Fatal("SetData reallocated despite spare capacity")
	}
}

func TestMsgPoolSteadyState(t *testing.T) {
	var p MsgPool
	live := make([]*Msg, 0, 8)
	payload := make([]byte, config.BlockSize)
	for round := 0; round < 1000; round++ {
		// Up to 8 messages in flight, then all returned.
		for i := 0; i < 8; i++ {
			m := p.Get()
			m.Type = MsgDataE
			m.SetData(payload)
			live = append(live, m)
		}
		for _, m := range live {
			p.Put(m)
		}
		live = live[:0]
	}
	if p.News > 8 {
		t.Fatalf("steady state allocated: News=%d, want <= 8", p.News)
	}
	if p.Gets != 8000 {
		t.Fatalf("Gets=%d, want 8000", p.Gets)
	}
}

func TestMsgPoolAdoptsForeignMessages(t *testing.T) {
	var p MsgPool
	p.Put(&Msg{Type: MsgInv, Addr: 42})
	m := p.Get()
	if m.Type != 0 || m.Addr != 0 {
		t.Fatal("adopted message not zeroed")
	}
	if p.News != 0 {
		t.Fatal("Get should have reused the adopted message")
	}
}
