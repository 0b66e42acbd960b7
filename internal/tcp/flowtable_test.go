package tcp

import (
	"math/bits"
	"math/rand"
	"testing"

	"tcptrim/internal/netsim"
)

// TestFlowTableRegistrationOrderAllocations pins the dense table's growth
// to O(log n) allocations whatever order ids register in: descending and
// shuffled orders must not reallocate per new lowest id.
func TestFlowTableRegistrationOrderAllocations(t *testing.T) {
	const n = 1 << 16
	c := &Conn{}
	rng := rand.New(rand.NewSource(1))
	orders := map[string][]netsim.FlowID{
		"ascending":  make([]netsim.FlowID, n),
		"descending": make([]netsim.FlowID, n),
		"shuffled":   make([]netsim.FlowID, n),
	}
	for i := 0; i < n; i++ {
		orders["ascending"][i] = netsim.FlowID(1000 + i)
		orders["descending"][i] = netsim.FlowID(1000 + n - 1 - i)
	}
	for i, j := range rng.Perm(n) {
		orders["shuffled"][i] = netsim.FlowID(1000 + j)
	}
	limit := float64(4 * bits.Len(n))
	for name, ids := range orders {
		var tb flowTable
		allocs := testing.AllocsPerRun(1, func() {
			tb = flowTable{}
			for _, f := range ids {
				if !tb.put(f, c) {
					t.Fatalf("%s: put(%d) refused", name, f)
				}
			}
		})
		if allocs > limit {
			t.Errorf("%s: %v allocations for %d ids, want ≤ %v (O(log n))", name, allocs, n, limit)
		}
		if tb.spill != nil {
			t.Errorf("%s: dense ids spilled", name)
		}
		for _, f := range ids {
			if tb.get(f) != c {
				t.Fatalf("%s: get(%d) lost its connection", name, f)
			}
		}
	}
}

// TestFlowTableMatchesMap drives random put/get/del traffic, including ids
// beyond the dense span and ids near zero, against a map reference.
func TestFlowTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conns := make([]*Conn, 16)
	for i := range conns {
		conns[i] = &Conn{}
	}
	for round := 0; round < 20; round++ {
		var tb flowTable
		ref := map[netsim.FlowID]*Conn{}
		origin := netsim.FlowID(rng.Intn(3) * maxDenseFlowSpan)
		id := func() netsim.FlowID {
			switch rng.Intn(10) {
			case 0: // far outside any dense span
				return netsim.FlowID(rng.Int63())
			case 1: // near the span bound on either side
				return origin + netsim.FlowID(maxDenseFlowSpan) - 4 + netsim.FlowID(rng.Intn(8))
			default:
				return origin + netsim.FlowID(rng.Intn(4096))
			}
		}
		for op := 0; op < 4000; op++ {
			f := id()
			switch rng.Intn(3) {
			case 0:
				c := conns[rng.Intn(len(conns))]
				_, taken := ref[f]
				if got := tb.put(f, c); got == taken {
					t.Fatalf("round %d: put(%d) = %v with taken=%v", round, f, got, taken)
				}
				if !taken {
					ref[f] = c
				}
			case 1:
				tb.del(f)
				delete(ref, f)
			default:
				if got := tb.get(f); got != ref[f] {
					t.Fatalf("round %d: get(%d) = %p, want %p", round, f, got, ref[f])
				}
			}
		}
		for f, c := range ref {
			if tb.get(f) != c {
				t.Fatalf("round %d: get(%d) lost its connection", round, f)
			}
		}
	}
}

// TestFlowTableSpillBoundary pins which ids go dense and which spill: the
// registered span, counted from the lowest dense id, is capped at
// maxDenseFlowSpan in both directions; an id whose slot already exists
// (headroom included) never spills.
func TestFlowTableSpillBoundary(t *testing.T) {
	c := &Conn{}
	const lo = netsim.FlowID(3 * maxDenseFlowSpan)
	var tb flowTable
	tb.put(lo, c)
	tb.put(lo-1, c) // grows downward, leaving headroom below lo-1
	for _, tc := range []struct {
		f     netsim.FlowID
		spill bool
	}{
		{lo - 2, false},                        // inside the headroom
		{lo - 2 + maxDenseFlowSpan - 1, false}, // top of the span
		{lo - 2 + maxDenseFlowSpan, true},      // one past it
		{lo - 3, false},                        // headroom slot, though the span now exceeds the bound
		{lo - 5, true},                         // below the headroom, span too wide
	} {
		if !tb.put(tc.f, c) {
			t.Fatalf("put(%d) refused", tc.f)
		}
		if _, spilled := tb.spill[tc.f]; spilled != tc.spill {
			t.Errorf("put(%d): spilled = %v, want %v", tc.f, spilled, tc.spill)
		}
		if tb.get(tc.f) != c {
			t.Errorf("get(%d) lost its connection", tc.f)
		}
	}
}
