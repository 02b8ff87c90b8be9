package coherence

import (
	"fmt"
	"sort"

	"repro/internal/config"
	"repro/internal/sim"
)

// Network is the interconnect surface a protocol builds against: message
// injection plus the message free list every controller draws from.
// Implemented by mesh.Network; controllers hold this interface so
// protocol packages depend only on the coherence layer, not on the mesh
// model.
type Network interface {
	Send(now sim.Cycle, m *Msg)
	MsgPool() *MsgPool
}

// Memory is the backing-store surface protocols fill from and write back
// to. Implemented by memsys.Memory.
type Memory interface {
	Latency(addr uint64) sim.Cycle
	ReadBlock(addr uint64, dst []byte)
	WriteBlock(addr uint64, src []byte)
}

// Protocol builds the coherence machinery for a system configuration:
// one L1 controller per core and one directory (L2) controller per tile.
// Implementations register themselves with RegisterProtocol so systems,
// harnesses and CLIs resolve protocols by name instead of hard-coding
// the known set.
type Protocol interface {
	Name() string
	Build(sys config.System, net Network, mem Memory) ([]L1Like, []Controller)
}

// registryEntry pairs a factory with its plotting order and legality
// tables.
type registryEntry struct {
	name     string
	order    int
	legality *Legality
	factory  func() Protocol
}

var registry []registryEntry

// RegisterProtocol adds a protocol factory and its legality tables
// under a unique name. The order key sorts Protocols()/ProtocolNames()
// deterministically (the paper's plotting order) regardless of
// package-init sequence; ties break by name. Presets that share a state
// machine may pass the same *Legality; nil leaves the legality oracle
// nothing to check. Called from protocol package init functions; a
// duplicate name panics.
func RegisterProtocol(name string, order int, legality *Legality, factory func() Protocol) {
	for _, e := range registry {
		if e.name == name {
			panic(fmt.Sprintf("coherence: protocol %q registered twice", name))
		}
	}
	registry = append(registry, registryEntry{name: name, order: order, legality: legality, factory: factory})
	sort.SliceStable(registry, func(i, j int) bool {
		if registry[i].order != registry[j].order {
			return registry[i].order < registry[j].order
		}
		return registry[i].name < registry[j].name
	})
}

// ProtocolByName instantiates the registered protocol with that name.
func ProtocolByName(name string) (Protocol, error) {
	for _, e := range registry {
		if e.name == name {
			return e.factory(), nil
		}
	}
	return nil, fmt.Errorf("coherence: unknown protocol %q (registered: %v)", name, ProtocolNames())
}

// LegalityByName returns the legality tables registered with a protocol
// name, or nil if the name is unknown or registered none.
func LegalityByName(name string) *Legality {
	for _, e := range registry {
		if e.name == name {
			return e.legality
		}
	}
	return nil
}

// ProtocolNames lists every registered protocol name in order.
func ProtocolNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// Protocols instantiates every registered protocol in order.
func Protocols() []Protocol {
	out := make([]Protocol, len(registry))
	for i, e := range registry {
		out[i] = e.factory()
	}
	return out
}
