package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// Well-known timeline process IDs. Component tick spans live on pid 0
// (sim.Engine.SetTimeline); the mesh and directory-transaction tracks
// get dedicated processes so Perfetto groups them.
const (
	PidMesh = 901 // message send→deliver arrows, one thread per router
	PidTx   = 902 // directory-transaction async spans, one thread per tile
)

// Event is one Chrome trace-event (the JSON Array Format understood by
// chrome://tracing and Perfetto). Timestamps are microseconds in the
// viewer; the simulator maps one cycle to one microsecond.
type Event struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Doc is the emitted document shape ({"traceEvents": [...]}).
type Doc struct {
	TraceEvents []Event `json:"traceEvents"`
}

type tickRun struct {
	start, end int64 // [start, end) cycles of consecutive ticks
}

type asyncKey struct {
	cat string
	id  uint64
}

type asyncOpen struct {
	name     string
	pid, tid int
	count    int
	lastTs   int64
}

// Timeline accumulates trace events in memory and serializes them once
// after the run. It is fed from the goroutine running the simulation,
// so event order in the file is deterministic. Consecutive
// per-component ticks at adjacent cycles coalesce into one span, which
// bounds memory on long runs (components tick in bursts).
type Timeline struct {
	events []Event
	ticks  map[uint64]*tickRun // pid<<32|tid -> open coalesced tick span
	open   map[asyncKey]*asyncOpen
}

// NewTimeline builds an empty timeline sink.
func NewTimeline() *Timeline {
	return &Timeline{
		ticks: make(map[uint64]*tickRun),
		open:  make(map[asyncKey]*asyncOpen),
	}
}

func tickKey(pid, tid int) uint64 { return uint64(uint32(pid))<<32 | uint64(uint32(tid)) }

// ProcessName attaches viewer metadata naming a process track.
func (t *Timeline) ProcessName(pid int, name string) {
	t.events = append(t.events, Event{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name},
	})
}

// ThreadName attaches viewer metadata naming a thread track.
func (t *Timeline) ThreadName(pid, tid int, name string) {
	t.events = append(t.events, Event{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name},
	})
}

// Tick records one component dispatch at cycle now. Adjacent-cycle
// ticks of the same (pid, tid) extend the open span instead of
// emitting a new event.
func (t *Timeline) Tick(pid, tid int, now int64) {
	k := tickKey(pid, tid)
	if run, ok := t.ticks[k]; ok {
		if now == run.end {
			run.end = now + 1
			return
		}
		t.events = append(t.events, Event{
			Name: "tick", Ph: "X", Ts: run.start, Dur: run.end - run.start, Pid: pid, Tid: tid,
		})
		run.start, run.end = now, now+1
	} else {
		t.ticks[k] = &tickRun{start: now, end: now + 1}
	}
}

// Instant records a point-in-time marker (thread scope).
func (t *Timeline) Instant(pid, tid int, name string, ts int64) {
	t.events = append(t.events, Event{
		Name: name, Ph: "i", S: "t", Ts: ts, Pid: pid, Tid: tid,
	})
}

// AsyncBegin opens an async span identified by (cat, id). Async spans
// carry interleaved per-address transactions on one track without the
// strict nesting duration events require. Unbalanced begins are closed
// by Flush so early engine termination still emits well-formed JSON.
func (t *Timeline) AsyncBegin(cat string, id uint64, pid, tid int, name string, ts int64) {
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "b", Ts: ts, Pid: pid, Tid: tid, ID: hexID(id),
	})
	k := asyncKey{cat: cat, id: id}
	o, ok := t.open[k]
	if !ok {
		o = &asyncOpen{name: name, pid: pid, tid: tid}
		t.open[k] = o
	}
	o.count++
	if ts > o.lastTs {
		o.lastTs = ts
	}
}

// AsyncEnd closes the async span identified by (cat, id).
func (t *Timeline) AsyncEnd(cat string, id uint64, pid, tid int, name string, ts int64) {
	t.events = append(t.events, Event{
		Name: name, Cat: cat, Ph: "e", Ts: ts, Pid: pid, Tid: tid, ID: hexID(id),
	})
	k := asyncKey{cat: cat, id: id}
	if o, ok := t.open[k]; ok {
		o.count--
		if o.count <= 0 {
			delete(t.open, k)
		}
	}
}

// FlowStart emits a 1-cycle anchor slice plus a flow-start event bound
// to it — viewers draw arrows only between slices, so every arrow
// endpoint gets its own anchor.
func (t *Timeline) FlowStart(id uint64, pid, tid int, name string, ts int64) {
	t.events = append(t.events,
		Event{Name: name, Ph: "X", Ts: ts, Dur: 1, Pid: pid, Tid: tid},
		Event{Name: name, Cat: "msg", Ph: "s", Ts: ts, Pid: pid, Tid: tid, ID: hexID(id)},
	)
}

// FlowEnd emits the arrival anchor slice plus the flow-finish event
// (bp:"e" binds to the enclosing slice).
func (t *Timeline) FlowEnd(id uint64, pid, tid int, name string, ts int64) {
	t.events = append(t.events,
		Event{Name: name, Ph: "X", Ts: ts, Dur: 1, Pid: pid, Tid: tid},
		Event{Name: name, Cat: "msg", Ph: "f", BP: "e", Ts: ts, Pid: pid, Tid: tid, ID: hexID(id)},
	)
}

// Flush closes every open tick span and unbalanced async span at
// finalCycle, so the document stays well-formed when the engine
// terminated early (deadlock, cycle limit). Safe to call repeatedly;
// emission may continue afterwards (later flushes close the rest).
func (t *Timeline) Flush(finalCycle int64) {
	keys := make([]uint64, 0, len(t.ticks))
	for k := range t.ticks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		run := t.ticks[k]
		t.events = append(t.events, Event{
			Name: "tick", Ph: "X", Ts: run.start, Dur: run.end - run.start,
			Pid: int(k >> 32), Tid: int(uint32(k)),
		})
		delete(t.ticks, k)
	}
	aks := make([]asyncKey, 0, len(t.open))
	for k := range t.open {
		aks = append(aks, k)
	}
	sort.Slice(aks, func(i, j int) bool {
		if aks[i].cat != aks[j].cat {
			return aks[i].cat < aks[j].cat
		}
		return aks[i].id < aks[j].id
	})
	for _, k := range aks {
		o := t.open[k]
		ts := finalCycle
		if o.lastTs > ts {
			ts = o.lastTs
		}
		for ; o.count > 0; o.count-- {
			t.events = append(t.events, Event{
				Name: o.name, Cat: k.cat, Ph: "e", Ts: ts,
				Pid: o.pid, Tid: o.tid, ID: hexID(k.id),
			})
		}
		delete(t.open, k)
	}
}

// WriteJSON serializes the document. Call Flush first.
func (t *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(Doc{TraceEvents: t.events})
}

const hexDigits = "0123456789abcdef"

// hexID formats an async/flow id without fmt (called on hot-ish
// enabled paths; still allocates the string, which is fine — obs-on
// may allocate, it just may not perturb).
func hexID(id uint64) string {
	var buf [18]byte
	buf[0], buf[1] = '0', 'x'
	n := 2
	started := false
	for shift := 60; shift >= 0; shift -= 4 {
		d := (id >> uint(shift)) & 0xf
		if d != 0 || started || shift == 0 {
			buf[n] = hexDigits[d]
			n++
			started = true
		}
	}
	return string(buf[:n])
}
