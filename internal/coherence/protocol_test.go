package coherence

import (
	"testing"

	"repro/internal/config"
)

type fakeProto struct{ name string }

func (p fakeProto) Name() string { return p.name }
func (p fakeProto) Build(config.System, Network, Memory) ([]L1Like, []Controller) {
	return nil, nil
}

// withCleanRegistry runs f against a scratch registry, restoring the
// real one after (protocol packages register through init, so the live
// registry must survive the test).
func withCleanRegistry(t *testing.T, f func()) {
	t.Helper()
	saved := registry
	registry = nil
	defer func() { registry = saved }()
	f()
}

func TestProtocolRegistryOrderAndLookup(t *testing.T) {
	withCleanRegistry(t, func() {
		// Register out of order; enumeration must sort by (order, name).
		leg := &Legality{}
		RegisterProtocol("beta", 2, nil, func() Protocol { return fakeProto{"beta"} })
		RegisterProtocol("alpha", 1, leg, func() Protocol { return fakeProto{"alpha"} })
		RegisterProtocol("base", 0, nil, func() Protocol { return fakeProto{"base"} })

		names := ProtocolNames()
		if len(names) != 3 || names[0] != "base" || names[1] != "alpha" || names[2] != "beta" {
			t.Fatalf("names = %v", names)
		}
		ps := Protocols()
		if len(ps) != 3 || ps[0].Name() != "base" {
			t.Fatalf("Protocols() = %v", ps)
		}
		p, err := ProtocolByName("alpha")
		if err != nil || p.Name() != "alpha" {
			t.Fatalf("ByName(alpha) = %v, %v", p, err)
		}
		if _, err := ProtocolByName("nope"); err == nil {
			t.Fatal("unknown name did not error")
		}
		if LegalityByName("alpha") != leg || LegalityByName("beta") != nil || LegalityByName("nope") != nil {
			t.Fatal("LegalityByName does not return what each name registered")
		}
	})
}

func TestProtocolRegistryDuplicatePanics(t *testing.T) {
	withCleanRegistry(t, func() {
		RegisterProtocol("dup", 0, nil, func() Protocol { return fakeProto{"dup"} })
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration did not panic")
			}
		}()
		RegisterProtocol("dup", 1, nil, func() Protocol { return fakeProto{"dup"} })
	})
}
