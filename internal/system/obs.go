package system

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
)

// installObs wires the observability layer (cfg.Obs) into every built
// component. It runs after registration (engine timeline/label hooks
// enumerate registered tickers) and before Run. Everything installed
// here is strictly read-only with respect to simulated state: sinks
// observe cycle counts and event edges the simulation produces anyway,
// so an observed run's Result is bit-identical to an unobserved one
// (the TestObsOnOffBitIdentical gate).
func (m *Machine) installObs() {
	o := m.Cfg.Obs
	if o == nil || !o.Enabled() {
		return
	}
	reg, tl := o.Metrics, o.Timeline

	// Engine: wake-set occupancy, tick spans, pprof labels.
	if reg != nil {
		m.Engine.SetDispatchHist(reg.NewHist("engine.dispatch_ticks"))
	}
	if tl != nil {
		m.Engine.SetTimeline(tl)
	}
	if o.ProfileLabels {
		m.Engine.EnableProfileLabels()
	}

	// Mesh: traffic counters, link-occupancy and in-flight high-water
	// mark gauges, send→deliver flow arrows, fault-delay instants.
	if reg != nil {
		m.Net.InstallMetrics(reg)
		reg.RegisterCounter(m.Mem.Counters()...)
	}
	if tl != nil {
		m.Net.SetTimeline(tl)
	}

	// L1s: hit/miss/self-invalidation counters and per-miss
	// issue-to-completion latency histograms.
	if reg != nil {
		for i, l1 := range m.L1s {
			s := l1.L1Stats()
			s.SetNames(fmt.Sprintf("l1.%d", i))
			reg.RegisterCounter(s.Counters()...)
			rh := reg.NewHist("l1.read_miss_latency")
			wh := reg.NewHist("l1.write_miss_latency")
			l1.Hooks().MissLatency = func(read bool, cycles sim.Cycle) {
				if read {
					rh.Observe(int64(cycles))
				} else {
					wh.Observe(int64(cycles))
				}
			}
		}
	}

	// Directory tiles: TxTable lifecycle counters, birth-to-death
	// transaction latency, and per-transaction async timeline spans
	// named in protocol terms (mem-fetch, await-ack, sro-inv, ...).
	if tl != nil {
		tl.ProcessName(obs.PidTx, "directory tx")
	}
	for tile := range m.L2s {
		d := m.dir(tile)
		var lat func(sim.Cycle)
		if reg != nil {
			reg.RegisterCounter(d.ObsCounters()...)
			h := reg.NewHist("coherence.tx_latency")
			lat = func(cycles sim.Cycle) { h.Observe(int64(cycles)) }
		}
		var span func(bool, sim.Cycle, uint64, int)
		if tl != nil {
			tl.ThreadName(obs.PidTx, tile, "tile "+strconv.Itoa(tile))
			cat := "tx.t" + strconv.Itoa(tile)
			span = func(begin bool, now sim.Cycle, addr uint64, kind int) {
				if begin {
					tl.AsyncBegin(cat, addr, obs.PidTx, tile, d.TxKindName(kind), int64(now))
				} else {
					tl.AsyncEnd(cat, addr, obs.PidTx, tile, d.TxKindName(kind), int64(now))
				}
			}
		}
		d.Tx().SetObsSinks(lat, span)
	}

	// Frontends: retirement counters and stall-attribution histograms
	// (why each stalled cycle happened, bucketed by duration).
	if reg != nil {
		for _, f := range m.Fronts {
			reg.RegisterCounter(f.ObsCounters()...)
			f.SetStalls(reg.NewCoreStalls(f.Name()))
		}
	}
}
