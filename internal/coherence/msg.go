// Package coherence defines the node naming, message vocabulary and wire
// sizing shared by every coherence protocol in this repository (the MESI
// baseline and all TSO-CC variants). Protocols exchange only these
// messages over the on-chip mesh, so network traffic accounting is
// protocol independent.
package coherence

import (
	"fmt"

	"repro/internal/config"
)

// NodeID names a protocol endpoint. L1 controllers (one per core) occupy
// IDs [0, N); the NUCA L2 tiles occupy [N, 2N). L1 i and L2 tile i are
// co-located at mesh router i, matching a tiled CMP floorplan.
type NodeID int

// OwnerID is a NodeID at the width per-line directory metadata stores
// it. A line's owner or last writer is always an L1 — an id in
// [0, MaxCores) — or -1 for none, and the field sits in every L2 way
// of the machine, so its width is host footprint (see memsys.Way).
type OwnerID int16

// Node widens o back to the NodeID messages carry.
func (o OwnerID) Node() NodeID { return NodeID(o) }

// L1ID returns the NodeID of core i's L1 controller.
func L1ID(core int) NodeID { return NodeID(core) }

// L2ID returns the NodeID of L2 tile t in a system with n cores.
func L2ID(tile, n int) NodeID { return NodeID(n + tile) }

// HomeTile returns the directory tile the block holding addr is
// interleaved onto in an n-tile machine.
func HomeTile(addr uint64, n int) int { return int(addr>>config.BlockShift) % n }

// IsL1 reports whether id names an L1 controller in an n-core system.
func IsL1(id NodeID, n int) bool { return int(id) < n }

// Router returns the mesh router index for id in an n-core system.
func Router(id NodeID, n int) int {
	r := int(id)
	if r >= n {
		r -= n
	}
	return r
}

// MsgType enumerates every coherence message class.
type MsgType uint8

// Message classes. Data-carrying classes occupy BlockFlits flits on the
// wire; all others are single-flit control messages.
const (
	// Requests, L1 -> home L2 tile.
	MsgGetS MsgType = iota // read request
	MsgGetX                // write / RMW request
	MsgPutE                // clean-exclusive eviction notice
	MsgPutM                // dirty eviction, carries data
	MsgPutS                // sharer eviction notice (MESI only)

	// Responses, L2 -> L1.
	MsgDataE   // data, exclusive grant (receiver must Ack)
	MsgDataS   // data, shared
	MsgDataSRO // data, shared read-only (TSO-CC only)
	MsgPutAck  // eviction acknowledged

	// Directory-initiated, L2 -> L1.
	MsgFwdGetS // forward read to current owner
	MsgFwdGetX // forward write to current owner
	MsgInv     // invalidate (MESI sharer inv, TSO-CC recall / SRO bcast)

	// Owner / sharer replies.
	MsgDataOwner // owner -> requester, data
	MsgWBData    // owner -> L2, data writeback on downgrade/recall
	MsgAck       // L1 -> L2 transaction finalization
	MsgInvAck    // invalidation acknowledgement

	// Timestamp maintenance broadcasts (TSO-CC only).
	MsgTSResetL1 // an L1's timestamp source wrapped
	MsgTSResetL2 // an L2 tile's timestamp source wrapped

	// MsgUpgAck is a data-less exclusive upgrade grant (MESI: requester
	// already holds valid Shared data).
	MsgUpgAck

	numMsgTypes
)

var msgNames = [numMsgTypes]string{
	"GetS", "GetX", "PutE", "PutM", "PutS",
	"DataE", "DataS", "DataSRO", "PutAck",
	"FwdGetS", "FwdGetX", "Inv",
	"DataOwner", "WBData", "Ack", "InvAck",
	"TSResetL1", "TSResetL2", "UpgAck",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// CarriesData reports whether messages of this type include a cache block.
func (t MsgType) CarriesData() bool {
	switch t {
	case MsgDataE, MsgDataS, MsgDataSRO, MsgDataOwner, MsgWBData, MsgPutM:
		return true
	}
	return false
}

// Wire sizing, matching the paper's GARNET configuration (Table 2).
const (
	FlitBytes = 16
	// BlockFlits is the flit count of a data-carrying message:
	// one head/control flit plus the block payload.
	BlockFlits   = 1 + config.BlockSize/FlitBytes
	ControlFlits = 1
)

// Flits reports the wire size of a message of this type.
func (t MsgType) Flits() int {
	if t.CarriesData() {
		return BlockFlits
	}
	return ControlFlits
}

// Msg is a single coherence message. The generic metadata fields are
// interpreted per protocol; unused fields are zero.
type Msg struct {
	Type MsgType
	Src  NodeID
	Dst  NodeID
	Addr uint64 // block-aligned address
	Data []byte // config.BlockSize payload for data-carrying messages

	Requestor NodeID // original requester, for forwarded messages
	Owner     NodeID // last writer / owner conveyed in data responses
	Dirty     bool   // data modified relative to L2/memory copy
	NoCopy    bool   // WBData: the sender retains no copy (served from its eviction buffer)

	// TSO-CC timestamp metadata.
	TS      uint32 // line timestamp (0 = invalid)
	Epoch   uint8  // epoch-id of the timestamp source
	TSValid bool   // whether TS carries a meaningful timestamp

	// FaultStalls is injector scratch (internal/faults): how many times
	// a pressure-profile stall has deferred this message's TxTable
	// consumption. Zeroed with the rest of the message on pool Put; no
	// protocol logic may read it.
	FaultStalls uint8
}

// String renders a short human-readable form, used in traces and tests.
func (m *Msg) String() string {
	return fmt.Sprintf("%s src=%d dst=%d addr=%#x req=%d own=%d ts=%d ep=%d",
		m.Type, m.Src, m.Dst, m.Addr, m.Requestor, m.Owner, m.TS, m.Epoch)
}
