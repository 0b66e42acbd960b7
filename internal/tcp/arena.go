package tcp

import (
	"fmt"
	"time"
)

// connHot is the per-connection hot state: the sequence pointers, the
// congestion window, and the RTT estimator — the fields every ACK and
// every send touch. It is exactly one 64-byte cache line, so an arena
// slab packs the hot lines of many connections contiguously while
// the cold remainder of Conn stays behind the pointer.
type connHot struct {
	sndUna  int64
	sndNxt  int64
	maxSent int64
	bufEnd  int64

	cwnd     float64
	ssthresh float64

	srtt   time.Duration
	rttvar time.Duration
}

// arenaSlabSize is the number of hot records per slab. Slabs are never
// reallocated, so &slab[i] stays stable for the arena's lifetime.
const arenaSlabSize = 1024

// Arena is a slab allocator for connection hot state.
// Freed slots are recycled LIFO, keeping the working set of a
// materialize/detach churn (the hybrid-fidelity fleet's steady state)
// inside a few hot cache lines regardless of how many connections have
// ever existed. It also keeps the Conn shells that Detach dismantled, so
// that churn reuses them instead of allocating a connection per
// materialize. Not safe for concurrent use: an arena belongs to one
// simulation and is only touched from its event context.
type Arena struct {
	slabs  [][]connHot
	free   []int32
	next   int32
	inUse  []bool
	shells []*Conn
}

// NewArena returns an empty hot-state arena.
func NewArena() *Arena { return &Arena{} }

// Live returns the number of slots currently allocated.
func (a *Arena) Live() int { return int(a.next) - len(a.free) }

// Cap returns the total slots ever created (live + recyclable).
func (a *Arena) Cap() int { return int(a.next) }

// alloc hands out a zeroed hot record and its slot index, recycling the
// most recently freed slot first.
func (a *Arena) alloc() (*connHot, int32) {
	var slot int32
	if n := len(a.free); n > 0 {
		slot = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		slot = a.next
		a.next++
		if int(slot)/arenaSlabSize >= len(a.slabs) {
			a.slabs = append(a.slabs, make([]connHot, arenaSlabSize))
		}
		a.inUse = append(a.inUse, false)
	}
	if a.inUse[slot] {
		panic(fmt.Sprintf("tcp: arena slot %d allocated twice", slot))
	}
	a.inUse[slot] = true
	h := a.at(slot)
	*h = connHot{}
	return h, slot
}

// release returns a slot to the arena. Releasing a slot twice, or one the
// arena never issued, panics: aliasing a recycled hot record with a live
// connection would corrupt both silently.
func (a *Arena) release(slot int32) {
	if slot < 0 || slot >= a.next {
		panic(fmt.Sprintf("tcp: arena release of unissued slot %d (cap %d)", slot, a.next))
	}
	if !a.inUse[slot] {
		panic(fmt.Sprintf("tcp: arena slot %d released twice", slot))
	}
	a.inUse[slot] = false
	a.free = append(a.free, slot)
}

// at returns the record backing slot.
func (a *Arena) at(slot int32) *connHot {
	return &a.slabs[int(slot)/arenaSlabSize][int(slot)%arenaSlabSize]
}

// putShell keeps a detached connection for reuse by NewConn. Returning a
// shell twice panics: handing one Conn to two live flows would corrupt
// both silently.
func (a *Arena) putShell(c *Conn) {
	if c.shelved {
		panic(fmt.Sprintf("tcp: connection shell of flow %d returned twice", c.cfg.Flow))
	}
	c.shelved = true
	a.shells = append(a.shells, c)
}

// takeShell hands out the most recently detached shell, or nil when none
// is kept. NewConn reinitializes it, which clears the shelved mark.
func (a *Arena) takeShell() *Conn {
	n := len(a.shells)
	if n == 0 {
		return nil
	}
	c := a.shells[n-1]
	a.shells[n-1] = nil
	a.shells = a.shells[:n-1]
	if !c.shelved {
		panic(fmt.Sprintf("tcp: connection shell of flow %d handed out twice", c.cfg.Flow))
	}
	return c
}
