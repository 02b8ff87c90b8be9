package tsocc

import (
	"repro/internal/coherence"
	"repro/internal/config"
)

// Protocol is the TSO-CC protocol factory, parameterized by a
// config.TSOCC preset (TSO-CC-4-12-3, CC-shared-to-L2, ...).
type Protocol struct {
	Cfg config.TSOCC
}

// New returns a TSO-CC protocol with the given configuration.
func New(cfg config.TSOCC) Protocol { return Protocol{Cfg: cfg} }

// init publishes every §4.2 preset in the protocol registry, in the
// paper's plotting order (after the MESI baseline at order 0). Adding a
// TSO-CC variant to the evaluated set means adding a config preset;
// adding a new protocol means registering a new package — no call site
// enumerates the known protocols anymore.
func init() {
	leg := legality()
	for i, preset := range config.Presets() {
		cfg := preset
		// All presets share the same state machine, so they share one
		// legality table.
		coherence.RegisterProtocol(cfg.Name(), i+1, leg, func() coherence.Protocol { return New(cfg) })
	}
}

// legality builds the TSO-CC state-transition legality table consumed
// by the protocol-legality oracle (see coherence.RegisterProtocol).
// Every direct hop a correct run can take is enumerated; anything else
// — e.g. Modified reverting to Exclusive, or Exclusive decaying into a
// stale-tolerant state without passing through invalid — is a
// violation.
func legality() *coherence.Legality {
	l1 := coherence.StateTable{
		Names: map[int]string{stateS: "S", stateR: "R", stateE: "E", stateM: "M"},
		Edges: map[coherence.Edge]bool{},
	}
	l1.Allow(0, stateS, stateR, stateE, stateM) // fills
	l1.Allow(stateS, stateR, stateE, stateM, 0) // refetch upgrades; self-inv
	l1.Allow(stateR, stateS, stateE, stateM, 0) // decay refetch; write upgrade
	l1.Allow(stateE, stateM, stateS, 0)         // write; FwdGetS; recall
	l1.Allow(stateM, stateS, 0)                 // FwdGetS downgrade; recall

	l2 := coherence.StateTable{
		Names: map[int]string{dirV: "V", dirX: "X", dirS: "Sh", dirR: "RO"},
		Edges: map[coherence.Edge]bool{},
	}
	l2.Allow(0, dirV)                   // memory fetch
	l2.Allow(dirV, dirX, dirR, 0)       // exclusive grant; SharedRO promotion
	l2.Allow(dirS, dirX, dirR, 0)       // write upgrade; SharedRO promotion
	l2.Allow(dirR, dirX, 0)             // write to read-only data; decay/evict
	l2.Allow(dirX, dirS, dirR, dirV, 0) // owner writeback / put / evict
	return &coherence.Legality{L1: l1, L2: l2}
}

// Name implements coherence.Protocol.
func (p Protocol) Name() string { return p.Cfg.Name() }

// Build implements coherence.Protocol: one TSO-CC L1 per core and one
// tile per core.
func (p Protocol) Build(cfg config.System, net coherence.Network, mem coherence.Memory) ([]coherence.L1Like, []coherence.Controller) {
	l1s := make([]coherence.L1Like, cfg.Cores)
	l2s := make([]coherence.Controller, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		l1s[i] = NewL1(i, cfg, p.Cfg, net)
		l2s[i] = NewL2(i, cfg, p.Cfg, net, mem)
	}
	return l1s, l2s
}
