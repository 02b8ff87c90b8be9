package coherence

// MsgPool is a free-list allocator for coherence messages, eliminating
// steady-state allocation on the message path. Simulations are
// single-goroutine, so the pool is deliberately unsynchronized.
//
// Ownership discipline: the sender obtains a message with Get (or lets a
// helper like NewMsg fill it), the network delivers it, and the final
// receiver returns it with Put once the message can no longer be
// referenced — immediately after handling for messages consumed inline,
// or at transaction completion for requests a directory retains. Putting
// a message twice, or using it after Put, corrupts the simulation; the
// pool zeroes returned messages so stale reads fail loudly rather than
// leaking old field values.
//
// Messages allocated outside the pool (tests, tools) may be handed to
// Put as well; the pool adopts them.
type MsgPool struct {
	free []*Msg

	// Gets/News/Puts count pool traffic: News is the number of Gets that
	// had to allocate (after warm-up it stops growing); Puts counts
	// returns, so Gets-Puts is the number of live pooled messages.
	Gets int64
	News int64
	Puts int64
}

// Get returns a zeroed message. The Data slice of a recycled message
// keeps its capacity (len 0), so refilling a block payload does not
// reallocate.
func (p *MsgPool) Get() *Msg {
	p.Gets++
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	p.News++
	return &Msg{}
}

// NewFrom returns a pooled message stamped from tmpl, with the payload
// copied from data (tmpl.Data is ignored). The recycled buffer's
// capacity is preserved across the struct copy, so refills do not
// reallocate. This is the one place that knows the buffer-preserving
// stamp dance; senders must not hand-roll it.
func (p *MsgPool) NewFrom(tmpl Msg, data []byte) *Msg {
	m := p.Get()
	buf := m.Data
	*m = tmpl
	m.Data = buf
	m.SetData(data)
	return m
}

// Put recycles m. The caller must hold the only live reference.
func (p *MsgPool) Put(m *Msg) {
	if m == nil {
		return
	}
	p.Puts++
	data := m.Data[:0]
	*m = Msg{}
	m.Data = data
	p.free = append(p.free, m)
}

// Live reports the number of messages currently checked out of the pool.
func (p *MsgPool) Live() int64 { return p.Gets - p.Puts }

// SetData fills m's payload with a copy of src, reusing m's buffer
// capacity when possible.
func (m *Msg) SetData(src []byte) {
	m.Data = append(m.Data[:0], src...)
}
