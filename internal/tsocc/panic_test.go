package tsocc

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/mesh"
	"repro/internal/sim"
)

// TestUnexpectedMessagePanics pins how a protocol bug is reported: the
// controller's label and the cycle, then what went wrong.
func TestUnexpectedMessagePanics(t *testing.T) {
	sys := config.Small(2)
	net := mesh.New(mesh.Config{Routers: sys.Cores})
	for _, c := range []struct {
		handle func(sim.Cycle, *coherence.Msg)
		want   string
	}{
		{NewL1(1, sys, config.C12x3(), net).handle, "tsocc L1 1 cycle 42: unexpected message PutS "},
		{NewL2(1, sys, config.C12x3(), net, nil).handle, "tsocc L2 tile 1 cycle 42: unexpected message PutS "},
	} {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.HasPrefix(r, c.want) {
					t.Errorf("panic %q, want prefix %q", r, c.want)
				}
			}()
			c.handle(42, &coherence.Msg{Type: coherence.MsgPutS, Addr: 0x40})
		}()
	}
}
