// Package faults provides seeded, deterministic fault injection for the
// simulator: bounded perturbations of message delivery, admission
// timing, and directory-side protocol events that stay within
// protocol-legal bounds. The point is adversarial-timing coverage —
// shaking loose ordering bugs that nominal timing never exercises —
// while preserving the repo's bit-identity contract: for a fixed
// (profile, seed) every fault decision is a pure function of values
// that are themselves bit-identical across engine mode, core batching
// and trace replay (per-site decision counters, delivery
// cycles, message send order). Fault-injected runs therefore
// fingerprint-compare exactly like nominal runs; they form the fifth
// conformance axis.
//
// Six profiles are built in:
//
//   - jitter: each mesh delivery independently risks a bounded extra
//     delay (rate per-mille, 1..delay extra cycles).
//   - pressure: L1 port admissions (loads, RMWs, fences — never
//     stores, see Port) and TxTable message consumption are forcibly
//     declined/stalled at a per-mille rate, capped per op/message so
//     forward progress is guaranteed.
//   - burst: time is divided into 2^window-cycle windows; a per-mille
//     fraction of windows delay every delivery scheduled inside them
//     by a fixed amount, clustering congestion instead of spreading it.
//   - evict: L1 accesses that would hit a valid line instead force the
//     protocol's own eviction path first (rate per-mille), stressing
//     victim buffers, writeback races, and refetch ordering.
//   - reset-storm: TSO-CC bounded timestamps roll over early — L1
//     write-group timestamp assignment and L2 SharedRO timestamp
//     assignment trigger their reset broadcasts at a per-mille rate
//     instead of only at TSMax, stressing epoch-change handling.
//     No-op on protocols without timestamp state (MESI).
//   - victim: eviction acknowledgements (PutAck) at the L2 are held
//     back an extra 1..delay cycles (rate per-mille), widening the
//     window where a victim sits in the L1 evict buffer while
//     forwarded requests race the writeback.
//
// Profiles compose: a spec like "jitter+evict:rate=80" arms several at
// once (see Parse). Delay-based mesh profiles preserve per-(src,dst)
// delivery order with a monotonic clamp: a delayed message never lets
// a later send on the same ordered pair overtake it, because the
// protocols rely on pairwise FIFO (an invalidation must never pass an
// earlier data response). The victim profile deliberately has no such
// clamp — reordering acks against later traffic is the fault being
// injected, and the PutAck handler tolerates it by design.
//
// Every decision site draws against a per-site counter. The counters
// double as the shrinker's coordinate system: SetWindow restricts
// injection to counter values in [lo, hi), so a failure found by a
// sweep can be bisected down to the narrow band of decisions that
// matter (see internal/shrink).
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// Profile names accepted by Parse.
const (
	Jitter     = "jitter"
	Pressure   = "pressure"
	Burst      = "burst"
	Evict      = "evict"
	ResetStorm = "reset-storm"
	Victim     = "victim"
)

// Profile is one parsed, clamped fault profile component. Zero value
// means "no injection" (Name empty).
type Profile struct {
	// Name is one of Jitter, Pressure, Burst, Evict, ResetStorm,
	// Victim.
	Name string
	// Rate is the injection probability in per-mille (0..1000): per
	// delivery for jitter, per admission attempt for pressure, per
	// window for burst, per valid-line access for evict, per timestamp
	// assignment for reset-storm, per eviction ack for victim.
	Rate uint32
	// MaxDelay bounds the extra latency in cycles: jitter and victim
	// draw uniformly from 1..MaxDelay, burst adds exactly MaxDelay.
	MaxDelay sim.Cycle
	// StallCap caps consecutive forced declines of one port op and
	// total forced stalls of one TxTable message (pressure), so
	// injection can slow but never starve an operation.
	StallCap uint8
	// WindowLog is the burst window size as log2 cycles.
	WindowLog uint8
}

// Defaults per profile; overridable via the spec string.
func defaults(name string) Profile {
	switch name {
	case Jitter:
		return Profile{Name: Jitter, Rate: 200, MaxDelay: 6}
	case Pressure:
		return Profile{Name: Pressure, Rate: 150, StallCap: 3}
	case Burst:
		return Profile{Name: Burst, Rate: 125, MaxDelay: 8, WindowLog: 6}
	case Evict:
		return Profile{Name: Evict, Rate: 40}
	case ResetStorm:
		return Profile{Name: ResetStorm, Rate: 60}
	case Victim:
		return Profile{Name: Victim, Rate: 250, MaxDelay: 12}
	}
	return Profile{}
}

// keys lists the parameters each profile accepts; anything else in a
// spec is an error that names both the profile and the offending key.
func allowedKeys(name string) map[string]bool {
	switch name {
	case Jitter:
		return map[string]bool{"rate": true, "delay": true}
	case Pressure:
		return map[string]bool{"rate": true, "cap": true}
	case Burst:
		return map[string]bool{"rate": true, "delay": true, "window": true}
	case Evict:
		return map[string]bool{"rate": true}
	case ResetStorm:
		return map[string]bool{"rate": true}
	case Victim:
		return map[string]bool{"rate": true, "delay": true}
	}
	return nil
}

func clamp(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Parse parses a composite profile spec: one or more components
// separated by '+' or ',', each of the form "name" or
// "name:key=val,key=val". A bare name token starts a new component and
// key=val tokens attach to the most recent one, so
// "jitter:rate=300+evict:rate=80" and "jitter,rate=300,evict" both
// parse. Keys: rate (per-mille), delay (cycles), cap (max consecutive
// stalls), window (log2 cycles) — validated per profile, so e.g.
// "evict:window=4" is rejected naming the profile and the key.
// Out-of-range values are clamped rather than rejected so randomized
// specs (fuzzing) stay valid; only malformed syntax, unknown names,
// unknown or inapplicable keys, and duplicate profiles error.
func Parse(spec string) ([]Profile, error) {
	var profs []Profile
	cur := -1 // index into profs of the component accepting keys
	for _, tok := range strings.FieldsFunc(spec, func(r rune) bool {
		return r == '+' || r == ','
	}) {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, params, hasParams := strings.Cut(tok, ":")
		name = strings.TrimSpace(name)
		if strings.Contains(name, "=") {
			// A key=val token: attach to the current component.
			if cur < 0 {
				return nil, fmt.Errorf("faults: parameter %q in %q precedes any profile name", tok, spec)
			}
			if err := applyKey(&profs[cur], name, spec); err != nil {
				return nil, err
			}
			if hasParams {
				return nil, fmt.Errorf("faults: malformed token %q in %q", tok, spec)
			}
			continue
		}
		p := defaults(name)
		if p.Name == "" {
			return nil, fmt.Errorf("faults: unknown profile %q (want %s)", name, strings.Join(Names(), ", "))
		}
		for _, prev := range profs {
			if prev.Name == p.Name {
				return nil, fmt.Errorf("faults: duplicate profile %q in %q", p.Name, spec)
			}
		}
		profs = append(profs, p)
		cur = len(profs) - 1
		if hasParams {
			for _, kv := range strings.Split(params, ",") {
				if err := applyKey(&profs[cur], kv, spec); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(profs) == 0 {
		return nil, fmt.Errorf("faults: empty profile spec %q", spec)
	}
	return profs, nil
}

// applyKey parses one "key=val" and applies it to p, enforcing p's
// allowed-key set.
func applyKey(p *Profile, kv, spec string) error {
	key, val, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("faults: profile %q: malformed parameter %q in %q (want key=val)", p.Name, kv, spec)
	}
	key = strings.TrimSpace(key)
	n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return fmt.Errorf("faults: profile %q: parameter %q in %q: %v", p.Name, kv, spec, err)
	}
	if !allowedKeys(p.Name)[key] {
		return fmt.Errorf("faults: profile %q: unknown parameter %q in %q", p.Name, key, spec)
	}
	switch key {
	case "rate":
		p.Rate = uint32(clamp(n, 0, 1000))
	case "delay":
		p.MaxDelay = sim.Cycle(clamp(n, 1, 64))
	case "cap":
		p.StallCap = uint8(clamp(n, 1, 8))
	case "window":
		p.WindowLog = uint8(clamp(n, 2, 16))
	}
	return nil
}

// Names returns every accepted profile name, sorted.
func Names() []string {
	names := []string{Jitter, Pressure, Burst, Evict, ResetStorm, Victim}
	sort.Strings(names)
	return names
}

// Injector makes all fault decisions for one run; identical (profile,
// seed) runs see identical decision streams.
type Injector struct {
	seed  uint64
	profs []Profile

	// Per-kind components (nil when the profile is absent from the
	// spec). Composite specs arm several at once.
	jitter   *Profile
	pressure *Profile
	burst    *Profile
	evict    *Profile
	reset    *Profile
	victim   *Profile

	// Decision-counter window: a site counter c only injects when
	// winLo <= c < winHi. Defaults to the full range; the shrinker
	// narrows it to bisect which decisions a failure needs.
	winLo, winHi uint64

	// maxCtr records the highest counter any site reached, giving the
	// shrinker its initial window bound.
	maxCtr uint64

	// Per-(src,dst) state for mesh delays: a decision counter (the
	// per-site sequence number jitter rolls against) and the latest
	// delivery cycle handed out (the FIFO clamp).
	pairSeq map[uint64]uint64
	lastOut map[uint64]sim.Cycle
}

// New builds an injector from a profile spec (see Parse) and a seed.
func New(spec string, seed uint64) (*Injector, error) {
	profs, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	in := &Injector{
		seed:    seed,
		profs:   profs,
		winHi:   ^uint64(0),
		pairSeq: make(map[uint64]uint64),
		lastOut: make(map[uint64]sim.Cycle),
	}
	for i := range in.profs {
		p := &in.profs[i]
		switch p.Name {
		case Jitter:
			in.jitter = p
		case Pressure:
			in.pressure = p
		case Burst:
			in.burst = p
		case Evict:
			in.evict = p
		case ResetStorm:
			in.reset = p
		case Victim:
			in.victim = p
		}
	}
	return in, nil
}

// SetWindow restricts injection to decision-counter values in
// [lo, hi); hi == 0 means unbounded. Must be called before the run
// starts.
func (in *Injector) SetWindow(lo, hi uint64) {
	in.winLo = lo
	if hi == 0 {
		hi = ^uint64(0)
	}
	in.winHi = hi
}

// MaxCounter reports the highest decision counter any site reached; the
// shrinker uses MaxCounter()+1 as its initial window upper bound.
func (in *Injector) MaxCounter() uint64 { return in.maxCtr }

// MeshActive reports whether the injector perturbs mesh delivery times.
func (in *Injector) MeshActive() bool { return in.jitter != nil || in.burst != nil }

// PortActive reports whether the injector declines L1 port admissions.
func (in *Injector) PortActive() bool { return in.pressure != nil }

// TxActive reports whether the injector stalls TxTable consumption.
func (in *Injector) TxActive() bool { return in.pressure != nil }

// EvictActive reports whether the injector forces early L1 evictions.
func (in *Injector) EvictActive() bool { return in.evict != nil }

// ResetActive reports whether the injector storms timestamp resets.
func (in *Injector) ResetActive() bool { return in.reset != nil }

// VictimActive reports whether the injector delays L2 eviction acks.
func (in *Injector) VictimActive() bool { return in.victim != nil }

// Decision sites, mixed into the hash so the same counter value at
// different hook points draws independent rolls.
const (
	siteMesh   = 0x6d657368 // "mesh"
	sitePort   = 0x706f7274 // "port"
	siteTx     = 0x74787462 // "txtb"
	siteEvict  = 0x65766374 // "evct"
	siteReset  = 0x72736574 // "rset"
	siteVictim = 0x7663746d // "vctm"
)

// mix is the splitmix64/murmur finalizer: a cheap, well-distributed
// 64-bit hash used for all fault decisions.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// draw hashes (seed, site, a, b) to a 64-bit value; decisions reduce it
// to a per-mille bucket. The inputs are all deterministic across engine
// modes, so the decision stream is too.
func (in *Injector) draw(site, a, b uint64) uint64 {
	x := in.seed
	x ^= site * 0x9e3779b97f4a7c15
	x ^= a * 0xc2b2ae3d27d4eb4f
	x ^= b * 0x165667b19e3779f9
	return mix(x)
}

// gate applies the decision-counter window to counter value ctr and
// records the high-water mark. Every injection decision routes its
// counter through here, which is what makes the shrinker's window
// bisection sound: outside [winLo, winHi) a run behaves exactly as if
// the decisions there had rolled "no fault".
func (in *Injector) gate(ctr uint64) bool {
	in.maxCtr = max(in.maxCtr, ctr)
	return ctr >= in.winLo && ctr < in.winHi
}

func pairKey(src, dst coherence.NodeID) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// MeshDelay is the mesh.Network delay hook: given a delivery scheduled
// at cycle at for the (src, dst) endpoint pair, it returns the
// (possibly later) cycle the delivery should actually land. Jitter and
// burst components compose additively. The result is clamped
// monotonically per pair so injected delay never reorders an
// ordered-pair FIFO.
func (in *Injector) MeshDelay(now, at sim.Cycle, src, dst coherence.NodeID) sim.Cycle {
	key := pairKey(src, dst)
	out := at
	if p := in.jitter; p != nil {
		n := in.pairSeq[key]
		in.pairSeq[key] = n + 1
		if in.gate(n) {
			if h := in.draw(siteMesh, key, n); uint32(h%1000) < p.Rate {
				out += 1 + sim.Cycle((h>>32)%uint64(p.MaxDelay))
			}
		}
	}
	if p := in.burst; p != nil {
		win := uint64(at) >> p.WindowLog
		if in.gate(win) && uint32(in.draw(siteMesh, win, 0)%1000) < p.Rate {
			out += p.MaxDelay
		}
	}
	if last := in.lastOut[key]; out < last {
		out = last // FIFO clamp: never pass an earlier same-pair delivery
	}
	in.lastOut[key] = out
	return out
}

// TxStall returns a TxTable stall hook for one tile: each call decides
// whether the message about to be consumed is deferred one drain
// round. A per-message stall budget (Msg.FaultStalls, zeroed by the
// message pool) bounds how long any one message can be held.
func (in *Injector) TxStall(tile int) func(m *coherence.Msg) bool {
	var seq uint64
	rate, budget := in.pressure.Rate, in.pressure.StallCap
	return func(m *coherence.Msg) bool {
		seq++
		if m.FaultStalls >= budget {
			return false
		}
		if in.gate(seq) && uint32(in.draw(siteTx, uint64(tile), seq)%1000) < rate {
			m.FaultStalls++
			return true
		}
		return false
	}
}

// EvictHook returns an L1 forced-eviction decision hook for one core:
// consulted on accesses that hit a valid, unpinned line, a firing hook
// makes the controller run its own eviction path first and take the
// miss. The decision counter advances only on those consultations,
// which occur in the same order in every engine mode (successful
// admissions are bit-identical; see Port for why declined retries are
// not, and note declines happen before the cache is probed).
func (in *Injector) EvictHook(core int) func() bool {
	var seq uint64
	rate := in.evict.Rate
	return func() bool {
		seq++
		return in.gate(seq) && uint32(in.draw(siteEvict, uint64(core), seq)%1000) < rate
	}
}

// ResetHook returns a timestamp-reset-storm decision hook for one
// node (L1 core or L2 tile; node ids are disjoint across the two, so
// one site constant serves both). Consulted at each timestamp
// assignment; firing forces the node's reset/rollover path early.
func (in *Injector) ResetHook(node coherence.NodeID) func() bool {
	var seq uint64
	rate := in.reset.Rate
	return func() bool {
		seq++
		return in.gate(seq) && uint32(in.draw(siteReset, uint64(uint32(node)), seq)%1000) < rate
	}
}

// AckDelay returns an eviction-ack delay hook for one L2 tile:
// consulted when the directory is about to schedule a PutAck, it
// returns 0 (send on time) or an extra 1..delay cycles. Unlike mesh
// delays there is deliberately no FIFO clamp — letting later directory
// traffic overtake the ack is the victim/writeback race being
// injected.
func (in *Injector) AckDelay(tile int) func() sim.Cycle {
	var seq uint64
	rate, maxDelay := in.victim.Rate, uint64(in.victim.MaxDelay)
	return func() sim.Cycle {
		seq++
		if !in.gate(seq) {
			return 0
		}
		if h := in.draw(siteVictim, uint64(tile), seq); uint32(h%1000) < rate {
			return 1 + sim.Cycle((h>>32)%maxDelay)
		}
		return 0
	}
}

// Port is a coherence.CorePort decorator that injects admission
// declines (the pressure profile). Loads, RMWs, and fences are safe to
// decline: in both engine modes a core with a ready-but-unaccepted op
// reports NextWake = now+1 and retries every cycle, so the per-core
// attempt counter advances identically and the decision stream stays
// bit-identical.
//
// Stores are NEVER declined. The write-buffer drain relies on the
// invariant that every Store decline is caused by one of the core's own
// in-flight transactions, whose completion callback wakes the core (see
// cpu.Core.drainWriteBuffer). An injected decline has no such callback:
// under wake-set scheduling the core would report WakeNever with a
// pending store — a lost-wakeup deadlock. Per-cycle mode would also
// retry stores on cycles wake-set mode never ticks, diverging the
// decision counters.
type Port struct {
	inner coherence.CorePort
	inj   *Injector
	core  uint64

	attempts uint64 // decision counter across load/RMW/fence admissions
	streak   uint8  // consecutive injected declines of the current op
}

// WrapPort decorates inner with pressure-profile admission declines for
// one core. The wrapper is only installed when PortActive; a disabled
// injector adds nothing to the hot path.
func (in *Injector) WrapPort(core int, inner coherence.CorePort) *Port {
	return &Port{inner: inner, inj: in, core: uint64(core)}
}

// decline rolls the next admission decision; capped so at most
// StallCap consecutive declines hit one op.
func (p *Port) decline() bool {
	p.attempts++
	if p.streak >= p.inj.pressure.StallCap {
		p.streak = 0
		return false
	}
	if p.inj.gate(p.attempts) && uint32(p.inj.draw(sitePort, p.core, p.attempts)%1000) < p.inj.pressure.Rate {
		p.streak++
		return true
	}
	p.streak = 0
	return false
}

// Load implements coherence.CorePort.
func (p *Port) Load(now sim.Cycle, addr uint64, cb func(val uint64)) bool {
	if p.decline() {
		return false
	}
	return p.inner.Load(now, addr, cb)
}

// Store implements coherence.CorePort. Stores pass through untouched —
// see the type comment for why declining one is a deadlock.
func (p *Port) Store(now sim.Cycle, addr uint64, val uint64, cb func()) bool {
	return p.inner.Store(now, addr, val, cb)
}

// RMW implements coherence.CorePort.
func (p *Port) RMW(now sim.Cycle, addr uint64, f func(old uint64) (uint64, bool), cb func(old uint64)) bool {
	if p.decline() {
		return false
	}
	return p.inner.RMW(now, addr, f, cb)
}

// Fence implements coherence.CorePort.
func (p *Port) Fence(now sim.Cycle, cb func()) bool {
	if p.decline() {
		return false
	}
	return p.inner.Fence(now, cb)
}
