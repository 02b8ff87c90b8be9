package mesi

import (
	"repro/internal/coherence"
	"repro/internal/config"
)

// Protocol is the MESI directory protocol factory.
type Protocol struct{}

// New returns the MESI baseline protocol.
func New() Protocol { return Protocol{} }

// init publishes the baseline in the protocol registry; order 0 keeps it
// first (the paper plots everything normalized against MESI).
func init() {
	coherence.RegisterProtocol("MESI", 0, legality(), func() coherence.Protocol { return New() })
}

// legality builds the MESI state-transition legality table consumed by
// the protocol-legality oracle (see coherence.RegisterProtocol). Every
// direct hop a correct run can take is enumerated; anything else — e.g.
// Modified silently downgrading to Exclusive — is a violation.
func legality() *coherence.Legality {
	l1 := coherence.StateTable{
		Names: map[int]string{stateS: "S", stateE: "E", stateM: "M"},
		Edges: map[coherence.Edge]bool{},
	}
	l1.Allow(0, stateS, stateE, stateM) // fills (DataS / DataE / DataOwner)
	l1.Allow(stateS, stateM, 0)         // upgrade; invalidation/eviction
	l1.Allow(stateE, stateM, stateS, 0)
	l1.Allow(stateM, stateS, 0) // FwdGetS downgrade; recall/eviction

	l2 := coherence.StateTable{
		Names: map[int]string{dirV: "V", dirS: "Sh", dirX: "X"},
		Edges: map[coherence.Edge]bool{},
	}
	l2.Allow(0, dirV)       // memory fetch
	l2.Allow(dirV, dirX, 0) // exclusive grant; eviction
	l2.Allow(dirS, dirX, dirV, 0)
	l2.Allow(dirX, dirS, dirV, 0) // owner downgrade; writeback; recall
	return &coherence.Legality{L1: l1, L2: l2}
}

// Name implements coherence.Protocol.
func (Protocol) Name() string { return "MESI" }

// Build implements coherence.Protocol: one L1 per core and one directory
// tile per core.
func (Protocol) Build(cfg config.System, net coherence.Network, mem coherence.Memory) ([]coherence.L1Like, []coherence.Controller) {
	l1s := make([]coherence.L1Like, cfg.Cores)
	l2s := make([]coherence.Controller, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		l1s[i] = NewL1(i, cfg, net)
		l2s[i] = NewL2(i, cfg, net, mem)
	}
	return l1s, l2s
}
