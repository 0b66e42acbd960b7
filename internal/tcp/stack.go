package tcp

import (
	"fmt"

	"tcptrim/internal/netsim"
)

// Stack is the per-host transport demultiplexer. It installs itself as the
// host's packet handler and routes ACKs to sending connections and data to
// receiving connections by flow id.
type Stack struct {
	net   *netsim.Network
	host  *netsim.Host
	send  flowTable
	recv  flowTable
	stray int
}

// NewStack attaches a transport stack to host.
func NewStack(net *netsim.Network, host *netsim.Host) *Stack {
	s := &Stack{
		net:  net,
		host: host,
	}
	host.SetHandler(s.dispatch)
	return s
}

// Host returns the underlying host.
func (s *Stack) Host() *netsim.Host { return s.host }

// StrayPackets returns the number of packets received with no matching
// connection (useful for catching wiring mistakes in experiments).
func (s *Stack) StrayPackets() int { return s.stray }

func (s *Stack) dispatch(pkt *netsim.Packet) {
	if pkt.IsAck {
		if c := s.send.get(pkt.Flow); c != nil {
			c.handleAck(pkt)
			return
		}
	} else if c := s.recv.get(pkt.Flow); c != nil {
		c.handleData(pkt)
		return
	}
	s.stray++
}

func (s *Stack) registerSender(flow netsim.FlowID, c *Conn) error {
	if !s.send.put(flow, c) {
		return fmt.Errorf("tcp: flow %d already has a sender on %s", flow, s.host.Name())
	}
	return nil
}

func (s *Stack) registerReceiver(flow netsim.FlowID, c *Conn) error {
	if !s.recv.put(flow, c) {
		return fmt.Errorf("tcp: flow %d already has a receiver on %s", flow, s.host.Name())
	}
	return nil
}

// unregisterSender and unregisterReceiver forget a flow (Conn.Detach);
// a packet of the flow arriving afterwards counts as stray.
func (s *Stack) unregisterSender(flow netsim.FlowID)   { s.send.del(flow) }
func (s *Stack) unregisterReceiver(flow netsim.FlowID) { s.recv.del(flow) }

// maxDenseFlowSpan bounds the dense table's registered id span (entries,
// 8 B each): flows within the span resolve by one bounds-checked index on
// the per-packet dispatch path; pathological outliers spill to a map
// instead of growing the slice without bound. Headroom below the lowest
// id comes on top, so the slice stays under twice the span.
const maxDenseFlowSpan = 1 << 22

// flowTable maps flow ids to connections. Experiments assign flow ids
// densely (httpapp numbers them sequentially per fleet), so the table is
// a base-offset slice — dispatch, the hottest per-packet path on
// front-end hosts, replaces a map lookup with an index. The slice grows
// geometrically in both directions, so registering ids in any order costs
// amortized O(1). Ids far outside the dense span fall back to a spill
// map; lookups stay correct either way. A Stack is owned by one
// simulation, so the table needs no locking.
type flowTable struct {
	// base is the id of dense[0]; dense[:lo-base] is headroom below lo,
	// the lowest id registered densely. The span limits count from lo.
	base  netsim.FlowID
	lo    netsim.FlowID
	dense []*Conn
	spill map[netsim.FlowID]*Conn
}

// get returns the connection registered for f, or nil.
func (t *flowTable) get(f netsim.FlowID) *Conn {
	if i := uint64(f) - uint64(t.base); i < uint64(len(t.dense)) {
		return t.dense[i]
	}
	if t.spill == nil {
		return nil
	}
	return t.spill[f]
}

// put registers c under f; it reports false when f is already taken.
func (t *flowTable) put(f netsim.FlowID, c *Conn) bool {
	if t.get(f) != nil {
		return false
	}
	switch top := t.base + netsim.FlowID(len(t.dense)); {
	case t.dense == nil:
		t.base, t.lo = f, f
		t.dense = append(t.dense, c)
		return true
	case f >= t.base && f < top:
		// The slot exists (it may be headroom): spilling f now would
		// hide it behind the dense slot get reads first.
		t.dense[f-t.base] = c
		t.lo = min(t.lo, f)
		return true
	case f >= t.lo:
		if uint64(f-t.lo) < maxDenseFlowSpan {
			for netsim.FlowID(len(t.dense)) <= f-t.base {
				t.dense = append(t.dense, nil)
			}
			t.dense[f-t.base] = c
			return true
		}
	case uint64(top-f) <= maxDenseFlowSpan:
		t.growDown(f, top)
		t.dense[f-t.base] = c
		t.lo = f
		return true
	}
	if t.spill == nil {
		t.spill = make(map[netsim.FlowID]*Conn)
	}
	t.spill[f] = c
	return true
}

// growDown reallocates the dense slice to reach down to f, with as much
// headroom again below f as the span f..top, capped by id 0 and the span
// bound.
func (t *flowTable) growDown(f, top netsim.FlowID) {
	span := uint64(top - f)
	head := min(span, uint64(f), maxDenseFlowSpan-span)
	base := f - netsim.FlowID(head)
	grown := make([]*Conn, top-base)
	copy(grown[t.base-base:], t.dense)
	t.base, t.dense = base, grown
}

// del forgets f.
func (t *flowTable) del(f netsim.FlowID) {
	if i := uint64(f) - uint64(t.base); i < uint64(len(t.dense)) {
		t.dense[i] = nil
		return
	}
	delete(t.spill, f)
}
