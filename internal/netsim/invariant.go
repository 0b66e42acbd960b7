package netsim

// Simulator invariant checking. The packet pool (pool.go) and the
// fault-injection layer (fault.go) both manipulate packet ownership by
// hand; a missed or doubled release would silently corrupt later
// simulations through the free list. The checker makes three structural
// properties loud:
//
//   - packet conservation: every pooled packet is either in the free list
//     or owned by exactly one pipe (queued, serializing, in flight, or
//     held by a reorder injector) whenever the simulation is between
//     events;
//   - no double release / no use-after-release (inline checks in
//     ReleasePacket and Pipe.Send, gated on sim.InvariantChecks);
//   - queue occupancy within configured bounds.
//
// CheckInvariants is cheap enough to run every simulated millisecond in
// the chaos experiments; violations panic with a per-pipe diagnostic dump.

import (
	"fmt"
	"strings"
	"time"
)

// ownedPooled counts the pooled packets this pipe currently owns.
func (p *Pipe) ownedPooled() int {
	n := 0
	if p.txPkt != nil && p.txPkt.pooled {
		n++
	}
	for _, pkt := range p.inFlight[p.flightHead:] {
		if pkt != nil && pkt.pooled {
			n++
		}
	}
	q := p.queue
	for _, pkt := range q.pkts[q.head:] {
		if pkt != nil && pkt.pooled {
			n++
		}
	}
	for _, pkt := range q.fav[q.favHead:] {
		if pkt != nil && pkt.pooled {
			n++
		}
	}
	if p.faults != nil {
		n += p.faults.heldPooled
	}
	return n
}

// checkBounds verifies the queue's occupancy against its configured
// capacities, returning a non-empty diagnostic on violation.
func (q *Queue) checkBounds() string {
	switch {
	case q.capPackets > 0 && q.Len() > q.capPackets:
		return fmt.Sprintf("queue holds %d packets, cap %d", q.Len(), q.capPackets)
	case q.capBytes > 0 && q.bytes > q.capBytes:
		return fmt.Sprintf("queue holds %d bytes, cap %d", q.bytes, q.capBytes)
	case q.bytes < 0:
		return fmt.Sprintf("queue byte count went negative: %d", q.bytes)
	case q.Len() < 0:
		return fmt.Sprintf("queue length went negative: %d", q.Len())
	}
	return ""
}

// CheckInvariants verifies packet conservation and queue bounds across the
// whole network, panicking with a diagnostic dump on violation. It must be
// called between simulation events (e.g. from its own scheduled event, or
// after the scheduler drained) — mid-event, a packet may legitimately be
// in transit between owners on the call stack.
func (n *Network) CheckInvariants() {
	// The scheduler's own structural walk (wheel slots, bitmaps, overflow
	// heap, live accounting) rides along: a corrupted timer structure
	// would surface as misdelivered packets long after the actual fault.
	n.sched.CheckAccounting()
	owned := 0
	var violations []string
	for _, pipes := range n.out {
		for _, p := range pipes {
			owned += p.ownedPooled()
			if msg := p.queue.checkBounds(); msg != "" {
				violations = append(violations,
					fmt.Sprintf("pipe %s->%s: %s", p.from.Name(), p.to.Name(), msg))
			}
		}
	}
	if live := n.LivePackets(); owned != live {
		violations = append(violations, fmt.Sprintf(
			"packet conservation: %d pooled packets outstanding but %d owned by pipes (leak or stolen reference of %d)",
			live, owned, live-owned))
	}
	if len(violations) == 0 {
		return
	}
	panic("netsim: invariant violation at " + n.sched.Now().String() + ":\n  " +
		strings.Join(violations, "\n  ") + "\n" + n.dumpState())
}

// dumpState renders the per-pipe ownership picture for invariant panics.
func (n *Network) dumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network state: live=%d free=%d pool=%+v stats=%+v\n",
		n.LivePackets(), len(n.pool.free), n.PoolStats(), n.Stats())
	for _, pipes := range n.out {
		for _, p := range pipes {
			tx := 0
			if p.txPkt != nil {
				tx = 1
			}
			held := 0
			down := false
			if p.faults != nil {
				held = p.faults.held
				down = p.faults.down
			}
			fmt.Fprintf(&b,
				"  pipe %s->%s: queued=%d inflight=%d tx=%d held=%d down=%v aqm=%s stats=%+v qstats=%+v\n",
				p.from.Name(), p.to.Name(), p.queue.Len(),
				len(p.inFlight)-p.flightHead, tx, held, down,
				p.queue.disc.Name(), p.stats, p.queue.stats)
		}
	}
	return b.String()
}

// ScheduleInvariantChecks runs CheckInvariants every simulated interval
// for as long as other events remain pending; the chaos experiments use
// it to keep the fault layer honest throughout a run, not just at the
// end.
func (n *Network) ScheduleInvariantChecks(every time.Duration) {
	if every <= 0 {
		every = time.Millisecond
	}
	var tick func()
	tick = func() {
		n.CheckInvariants()
		if n.sched.Len() > 0 {
			n.sched.After(every, tick)
		}
	}
	n.sched.After(every, tick)
}
