package mesi

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// TestUnexpectedMessagePanics pins how a protocol bug is reported: the
// controller's label and the cycle, then what went wrong. The L1 has no
// handler of its own (L1Base serves every message MESI sends it), so
// the message reaches it through the mesh's delivery and its tick.
func TestUnexpectedMessagePanics(t *testing.T) {
	sys := config.Small(2)
	net := mesh.New(mesh.Config{Routers: sys.Cores})
	l1 := NewL1(1, sys, net)
	sim.NewEngine(0).Register(l1)
	for _, c := range []struct {
		handle func(sim.Cycle, *coherence.Msg)
		want   string
	}{
		{func(now sim.Cycle, m *coherence.Msg) { l1.Deliver(now, m); l1.Tick(now) },
			"mesi L1 1 cycle 42: unexpected message DataSRO "},
		{NewL2(1, sys, net, nil).handle, "mesi L2 tile 1 cycle 42: unexpected message DataSRO "},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.HasPrefix(r, c.want) {
					t.Errorf("panic %q, want prefix %q", r, c.want)
				}
			}()
			c.handle(42, &coherence.Msg{Type: coherence.MsgDataSRO, Addr: 0x40})
		}()
	}
}
