package tcp

// Shell recycling: Detach hands the dismantled Conn back to its arena
// and the next NewConn on that arena reinitializes it in place. A
// recycled shell must be indistinguishable from a fresh allocation, and
// one shell must never back two live connections.

import (
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
)

// flowLog records one flow's connection events across all its lives.
type flowLog struct{ events []Event }

func (l *flowLog) Record(ev Event) { l.events = append(l.events, ev) }

func TestShellRecycleMatchesFreshArena(t *testing.T) {
	sim.SetInvariantChecks(true)
	t.Cleanup(func() { sim.SetInvariantChecks(false) })

	const flows = 3
	type outcome struct {
		logs   [flows][]Event
		stats  [flows]Stats
		shells int // distinct *Conn values ever handed out
	}
	// Three flows on one bottleneck with a tiny queue, so trains lose
	// segments and exercise recovery, SACK and timeout state before each
	// detach. The flows differ in their per-connection options, and flow
	// 2 first opens (without Restore) on a shell another flow left, so a
	// field the reinitialization forgot would leak between them.
	sizes := []int{30 * DefaultMSS, 7*DefaultMSS + 99, 45 * DefaultMSS, DefaultMSS, 20 * DefaultMSS}
	run := func(shared bool) outcome {
		tn := newTestNet(t, gigLink(6))
		arena := NewArena()
		logs := [flows]*flowLog{{}, {}, {}}
		ccs := [flows]CongestionControl{NewReno(), NewReno(), NewReno()}
		recs := [flows]RecoveryPolicy{NewRACKTLP(), NewClassicRecovery(), NewClassicRecovery()}
		var conns [flows]*Conn
		var saved [flows]*SavedState
		seen := map[*Conn]bool{}
		materialize := func(f int) *Conn {
			cfg := Config{
				Sender: tn.sender, Receiver: tn.receiver, Flow: netsim.FlowID(f + 1),
				MinRTO: 5 * time.Millisecond, Arena: arena,
				CC: ccs[f], Recovery: recs[f], Observer: logs[f],
				Restore: saved[f],
			}
			switch f {
			case 0:
				cfg.SACK = true
				cfg.ArmRTOOnLoneTail = true
			case 1:
				cfg.DelayedAck = 200 * time.Microsecond
				cfg.ECN = true
			}
			if !shared {
				cfg.Arena = NewArena()
			}
			c, err := NewConn(cfg)
			if err != nil {
				t.Fatalf("NewConn(flow %d): %v", f, err)
			}
			seen[c] = true
			return c
		}
		// Each round detaches every live flow in flow order, then
		// materializes in reverse: LIFO recycling hands each flow the
		// shell another flow just left. Flow 2 joins in round 2.
		for i, size := range sizes {
			size := size
			at := sim.At(time.Duration(i) * 40 * time.Millisecond)
			if _, err := tn.sched.At(at, func() {
				for f, c := range conns {
					if c == nil {
						continue
					}
					st, err := c.Detach()
					if err != nil {
						t.Fatalf("Detach(flow %d): %v", f, err)
					}
					saved[f] = &st
				}
				for f := flows - 1; f >= 0; f-- {
					if f == 2 && i < 2 {
						continue
					}
					conns[f] = materialize(f)
					conns[f].SendTrain(size+f*DefaultMSS, nil)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		tn.sched.Run()
		tn.net.CheckInvariants()
		var out outcome
		for f := 0; f < flows; f++ {
			if !conns[f].Quiescent() {
				t.Fatalf("flow %d not quiescent after drain", f)
			}
			out.logs[f] = logs[f].events
			out.stats[f] = conns[f].Stats()
		}
		out.shells = len(seen)
		return out
	}

	fresh := run(false)
	recycled := run(true)
	if fresh.stats[0].Timeouts+fresh.stats[0].FastRecoveries == 0 {
		t.Fatalf("scenario exercised no recovery: %+v", fresh.stats[0])
	}
	for f := 0; f < flows; f++ {
		if fresh.stats[f] != recycled.stats[f] {
			t.Errorf("flow %d stats diverged:\n  fresh: %+v\nrecycled: %+v", f, fresh.stats[f], recycled.stats[f])
		}
		if len(fresh.logs[f]) != len(recycled.logs[f]) {
			t.Errorf("flow %d trace length %d (fresh) vs %d (recycled)", f, len(fresh.logs[f]), len(recycled.logs[f]))
			continue
		}
		for i := range fresh.logs[f] {
			if fresh.logs[f][i] != recycled.logs[f][i] {
				t.Errorf("flow %d event %d: fresh %+v, recycled %+v", f, i, fresh.logs[f][i], recycled.logs[f][i])
				break
			}
		}
	}
	// Fresh arenas never recycle: one Conn per life. The shared arena
	// reuses the shells, so only one per flow is ever allocated.
	if want := flows*len(sizes) - 2; fresh.shells != want {
		t.Errorf("fresh arenas produced %d shells, want %d", fresh.shells, want)
	}
	if recycled.shells != flows {
		t.Errorf("shared arena produced %d shells, want %d", recycled.shells, flows)
	}
}

func TestShellDetachedOnceHandedOutOnce(t *testing.T) {
	tn := newTestNet(t, gigLink(100))
	arena := NewArena()
	c := newTestConn(t, tn, Config{Arena: arena})
	c.SendTrain(3*DefaultMSS, nil)
	tn.sched.Run()
	if _, err := c.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}
	if _, err := c.Detach(); err == nil {
		t.Fatal("second Detach of the same connection succeeded")
	}
	if len(arena.shells) != 1 {
		t.Fatalf("arena keeps %d shells after one detach, want 1", len(arena.shells))
	}
	mustPanic(t, "shell returned twice", func() { arena.putShell(c) })

	// The shell goes to exactly one successor; the next connection on the
	// arena gets a new one.
	c1 := newTestConn(t, tn, Config{Arena: arena, Flow: 2})
	c2 := newTestConn(t, tn, Config{Arena: arena, Flow: 3})
	if c1 != c {
		t.Error("NewConn did not reuse the detached shell")
	}
	if c2 == c1 {
		t.Fatal("one shell handed to two live connections")
	}
	// A live connection smuggled into the free list is caught when it
	// would be handed out.
	arena.shells = append(arena.shells, c2)
	mustPanic(t, "live shell handed out", func() { arena.takeShell() })
}
