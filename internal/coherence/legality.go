package coherence

import "strconv"

// Edge is one directed state transition (From → To) in a controller's
// state machine. State ids are the protocol's own compact encodings;
// id 0 is the invalid/absent state by convention in both L1s and L2
// directories.
type Edge struct{ From, To int }

// StateTable is the legality table for one controller class: the named
// states and the set of transitions the protocol's specification
// allows. Transitions are reported at mutation time (every edge is a
// direct hop, never a composite), so Edges is exact — an unlisted edge
// is a protocol bug, not a gap in the table.
type StateTable struct {
	Names map[int]string
	Edges map[Edge]bool
}

// Legal reports whether from → to is an allowed transition. Self-loops
// are never reported by controllers, so they need no table entries.
func (t *StateTable) Legal(from, to int) bool { return t.Edges[Edge{from, to}] }

// Allow adds from → to edges for every listed destination (table
// construction sugar for the protocols' init functions).
func (t *StateTable) Allow(from int, tos ...int) {
	for _, to := range tos {
		t.Edges[Edge{from, to}] = true
	}
}

// Name renders a state id for violation messages.
func (t *StateTable) Name(s int) string {
	if n, ok := t.Names[s]; ok {
		return n
	}
	return "state" + strconv.Itoa(s)
}

// Legality is a protocol's state-transition specification: one table
// for its L1 controllers, one for its L2 directory controllers. A
// protocol hands it to RegisterProtocol with its factory, so the
// legality oracle in internal/check can arm itself for any protocol
// resolved by name (LegalityByName).
type Legality struct {
	L1, L2 StateTable
}
