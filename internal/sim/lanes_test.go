package sim

// Differential proof for multi-lane event programs, in the FuzzScheduler
// lockstep idiom: a byte stream decodes into a small deterministic
// program over K logical shards — event lanes that share one scheduler
// and hand work to each other — with root events, timers and timer
// surgery, cross-shard handoffs one lookahead out, and sync points that
// read global state and may stop the run. The program runs twice on
// identical input: against the timing-wheel Scheduler and against the
// refSched heap oracle. Every observable — per-shard dispatch traces,
// per-shard work counters, handoff ledgers, sync-point global reads,
// fired counts, the final clock — must match bit for bit.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"
)

// splitmix is splitmix64: a cheap, well-mixed hash for deriving
// deterministic per-event behavior from ids.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	sdShards    = 4
	sdLookahead = Time(100 * time.Microsecond)
	sdQuantum   = Time(50 * time.Microsecond)
	sdHorizon   = Time(40 * time.Second)
	sdStopAt    = 600 // sync-read threshold that stops the run
)

// sdEntry is one observed dispatch: which program event fired and when.
type sdEntry struct {
	id uint64
	at Time
}

// sdTimer is a program timer on whichever scheduler hosts the run.
type sdTimer struct {
	t  Timer
	r  *refEvent
	fn func()
}

// sdEnv hosts one run of the lane program, on the wheel Scheduler when
// sched is set and on the refSched oracle otherwise.
type sdEnv struct {
	sched *Scheduler
	ref   *refSched

	counters [sdShards]int64
	xferred  [sdShards]int64
	traces   [sdShards][]sdEntry
	timers   [sdShards][]*sdTimer
	syncLog  []string
}

func newWheelEnv() *sdEnv { return &sdEnv{sched: NewScheduler()} }
func newRefEnv() *sdEnv   { return &sdEnv{ref: &refSched{}} }

func (e *sdEnv) now() Time {
	if e.sched != nil {
		return e.sched.Now()
	}
	return e.ref.now
}

// at schedules fn at the absolute instant t, never in the past here.
func (e *sdEnv) at(t Time, fn func()) {
	if e.sched != nil {
		e.sched.At(t, fn) //nolint:errcheck // t is never in the past here
		return
	}
	e.ref.After((t - e.ref.now).Duration(), fn)
}

func (e *sdEnv) after(d time.Duration, fn func()) *sdTimer {
	if e.sched != nil {
		return &sdTimer{t: e.sched.After(d, fn)}
	}
	return &sdTimer{r: e.ref.After(d, fn), fn: fn}
}

func (e *sdEnv) reset(tm *sdTimer, d time.Duration) {
	if e.sched != nil {
		tm.t.Reset(d)
		return
	}
	tm.r, _ = e.ref.reset(tm.r, d, tm.fn)
}

func (e *sdEnv) stopTimer(tm *sdTimer) {
	if e.sched != nil {
		tm.t.Stop()
		return
	}
	e.ref.stop(tm.r)
}

func (e *sdEnv) run() {
	if e.sched != nil {
		e.sched.RunUntil(sdHorizon)
		return
	}
	e.ref.runUntil(sdHorizon)
}

func (e *sdEnv) fired() uint64 {
	if e.sched != nil {
		return e.sched.Fired()
	}
	return e.ref.fired
}

func (e *sdEnv) stop() {
	if e.sched != nil {
		e.sched.Stop()
		return
	}
	e.ref.stopped = true
}

// post hands an event to another shard: xfer runs at the handoff, fn at
// the destination instant.
func (e *sdEnv) post(at Time, xfer, fn func()) {
	xfer()
	e.at(at, fn)
}

// fire is the program's event body: do work, observe, and — salt-driven
// — spawn same-shard children (quantized deltas, so distinct shards
// collide on identical instants and exercise the FIFO tie-break),
// cross-shard handoffs one lookahead or more out, and timer surgery.
func (e *sdEnv) fire(shard int, id uint64, depth int) func() {
	return func() {
		now := e.now()
		e.counters[shard]++
		e.traces[shard] = append(e.traces[shard], sdEntry{id: id, at: now})
		if depth <= 0 {
			return
		}
		h := splitmix(id)
		kids := int(h % 3)
		for k := 0; k < kids; k++ {
			h = splitmix(h + uint64(k))
			target := int(h>>4) % sdShards
			childID := id*7 + uint64(k) + 1
			child := e.fire(target, childID, depth-1)
			if target == shard {
				e.at(now+Time((h>>12)%8)*sdQuantum, child)
			} else {
				at := now + sdLookahead + Time((h>>12)%4)*sdQuantum
				tgt := target
				e.post(at, func() { e.xferred[tgt]++ }, child)
			}
		}
		// Shard-local timer surgery: reset pushes a pending timer out
		// (consuming a fresh sequence number), stop cancels one.
		if h%5 == 0 && len(e.timers[shard]) > 0 {
			tm := e.timers[shard][int(h>>20)%len(e.timers[shard])]
			if h%2 == 0 {
				e.reset(tm, time.Duration((h>>24)%5)*75*time.Microsecond)
			} else {
				e.stopTimer(tm)
			}
		}
	}
}

// buildProgram decodes data into the initial schedule. Four bytes per
// op; op kinds cover near and far (overflow-heap) roots, timers, and
// sync points that read exact global state and may stop the run.
func (e *sdEnv) buildProgram(data []byte) {
	var id uint64
	for len(data) >= 4 {
		b0, b1, b2, b3 := data[0], data[1], data[2], data[3]
		data = data[4:]
		id += 1000
		shard := int(b1) % sdShards
		at := Time(b2%64) * sdQuantum
		switch b0 % 8 {
		case 6: // far root: beyond the wheel span, lands in the overflow heap
			far := Time(20*time.Second) + Time(b2)*sdQuantum
			e.at(far, e.fire(shard, id, int(b3%3)))
		case 5: // timer: fires as a plain observed event unless stopped
			tm := e.after(at.Duration(), e.fire(shard, id, 0))
			e.timers[shard] = append(e.timers[shard], tm)
		case 4: // sync point: exact global read, stop past the threshold
			e.syncAt(at+sdQuantum/2, id)
		default: // near root
			e.at(at, e.fire(shard, id, int(b3%4)))
		}
	}
}

func (e *sdEnv) syncAt(at Time, id uint64) {
	e.at(at, func() {
		var sum int64
		for i := range e.counters {
			sum += e.counters[i] + e.xferred[i]
		}
		e.syncLog = append(e.syncLog, fmt.Sprintf("%d@%v=%d", id, at, sum))
		if sum > sdStopAt {
			e.stop()
		}
	})
}

// diff compares every observable of two runs, returning a description
// of the first divergence.
func (e *sdEnv) diff(o *sdEnv) string {
	for i := range e.counters {
		if e.counters[i] != o.counters[i] {
			return fmt.Sprintf("shard %d counter %d != %d", i, e.counters[i], o.counters[i])
		}
		if e.xferred[i] != o.xferred[i] {
			return fmt.Sprintf("shard %d xferred %d != %d", i, e.xferred[i], o.xferred[i])
		}
		if len(e.traces[i]) != len(o.traces[i]) {
			return fmt.Sprintf("shard %d trace length %d != %d", i, len(e.traces[i]), len(o.traces[i]))
		}
		for j := range e.traces[i] {
			if e.traces[i][j] != o.traces[i][j] {
				return fmt.Sprintf("shard %d trace[%d] %+v != %+v", i, j, e.traces[i][j], o.traces[i][j])
			}
		}
	}
	if e.now() != o.now() {
		return fmt.Sprintf("clock %v != %v", e.now(), o.now())
	}
	if len(e.syncLog) != len(o.syncLog) {
		return fmt.Sprintf("sync log length %d != %d", len(e.syncLog), len(o.syncLog))
	}
	for i := range e.syncLog {
		if e.syncLog[i] != o.syncLog[i] {
			return fmt.Sprintf("sync log[%d] %q != %q", i, e.syncLog[i], o.syncLog[i])
		}
	}
	if e.fired() != o.fired() {
		return fmt.Sprintf("fired %d != %d", e.fired(), o.fired())
	}
	return ""
}

// runShardDifferential drives the oracle and the wheel scheduler over
// the same program and asserts bit-identical observables.
func runShardDifferential(t *testing.T, data []byte) {
	t.Helper()
	ref := newRefEnv()
	ref.buildProgram(data)
	ref.run()

	wheel := newWheelEnv()
	wheel.buildProgram(data)
	wheel.run()
	if d := ref.diff(wheel); d != "" {
		t.Fatalf("wheel scheduler diverged from the heap oracle: %s", d)
	}
}

func TestShardDifferentialRandom(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		data := make([]byte, 64)
		x := splitmix(seed * 11)
		for i := range data {
			x = splitmix(x)
			data[i] = byte(x)
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runShardDifferential(t, data)
		})
	}
}

func TestShardDifferentialInvariants(t *testing.T) {
	old := InvariantChecks()
	SetInvariantChecks(true)
	defer SetInvariantChecks(old)
	for seed := uint64(0); seed < 40; seed++ {
		data := make([]byte, 48)
		x := splitmix(seed*13 + 7)
		for i := range data {
			x = splitmix(x)
			data[i] = byte(x)
		}
		runShardDifferential(t, data)
	}
}

// FuzzShardHandoff is the committed-corpus fuzz target for lane
// programs: the fuzzer explores program shapes (handoffs, sync stops,
// timer surgery, overflow-heap roots), the lockstep oracle rejects any
// ordering-visible divergence.
func FuzzShardHandoff(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3})
	f.Add([]byte{0, 1, 4, 3, 1, 2, 4, 3, 4, 0, 8, 0})
	f.Add([]byte{5, 0, 2, 0, 1, 0, 2, 2, 4, 1, 3, 0, 6, 3, 9, 2})
	f.Add(bytes.Repeat([]byte{2, 3, 1, 3}, 12))
	seed := make([]byte, 40)
	binary.LittleEndian.PutUint64(seed, 0xdecafbad)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runShardDifferential(t, data)
	})
}

// TestShardSoloEquivalence pins a program whose traffic lives on one
// shard, including timer surgery, sync points and horizon handling.
func TestShardSoloEquivalence(t *testing.T) {
	data := []byte{
		0, 0, 3, 3, 5, 0, 7, 0, 0, 0, 9, 2,
		4, 0, 12, 0, 6, 0, 1, 2, 0, 0, 30, 3,
	}
	runShardDifferential(t, data)
}

// pingPong builds the handoff hot-path workload on one scheduler: two
// shards, each re-arming a local ticker every 700ns that hands a no-op
// to the other shard 1000ns ahead. Returns per-destination delivery
// counters.
func pingPong() (*Scheduler, *[2]uint64) {
	s := NewScheduler()
	var delivered [2]uint64
	for i := 0; i < 2; i++ {
		i := i
		recv := func() { delivered[1-i]++ }
		var tick func()
		tick = func() {
			s.At(s.Now()+1000, recv) //nolint:errcheck // never in the past
			s.After(700*time.Nanosecond, tick)
		}
		// Staggered starts so the two tickers never share an instant.
		s.After(time.Duration(100+i*50)*time.Nanosecond, tick)
	}
	return s, &delivered
}

// TestCrossShardHandoffZeroAlloc pins the handoff path at zero
// allocations in steady state: handed-off events come off the free
// list. The parallel case runs two schedulers at once on their own
// goroutines, as trial workers do, and must stay allocation-free too.
func TestCrossShardHandoffZeroAlloc(t *testing.T) {
	const warm = Time(200_000)
	t.Run("inline", func(t *testing.T) {
		s, delivered := pingPong()
		s.RunUntil(warm)
		end := warm
		allocs := testing.AllocsPerRun(100, func() {
			end += 7_000 // ten ticks per shard, twenty handoffs
			s.RunUntil(end)
		})
		if delivered[0] == 0 || delivered[1] == 0 {
			t.Fatalf("workload did not hand off: delivered=%v", *delivered)
		}
		if allocs != 0 {
			t.Errorf("handoff allocates %.2f allocs/op, want 0", allocs)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		const workers = 2
		var (
			start [workers]chan Time
			done  sync.WaitGroup
			dels  [workers]*[2]uint64
		)
		for w := range start {
			s, delivered := pingPong()
			s.RunUntil(warm)
			dels[w] = delivered
			start[w] = make(chan Time)
			go func(ch <-chan Time) {
				for end := range ch {
					s.RunUntil(end)
					done.Done()
				}
			}(start[w])
		}
		defer func() {
			for _, ch := range start {
				close(ch)
			}
		}()
		end := warm
		allocs := testing.AllocsPerRun(100, func() {
			end += 7_000
			done.Add(workers)
			for _, ch := range start {
				ch <- end
			}
			done.Wait()
		})
		for w, d := range dels {
			if d[0] == 0 || d[1] == 0 {
				t.Fatalf("worker %d did not hand off: delivered=%v", w, *d)
			}
		}
		if allocs != 0 {
			t.Errorf("parallel handoff allocates %.2f allocs/op, want 0", allocs)
		}
	})
}
