package experiment

// Determinism proof for cell-granularity parallelism: every figure
// runner shards its sweep over RunTrials workers, min(cells,
// GOMAXPROCS) of them, and must render byte-identical tables however
// the cells are sharded, because each cell owns its own scheduler and
// network. These tests sweep the worker count over the paper scenarios
// (including the fault-injection matrix, whose GE loss, flaps,
// reordering, and duplication exercise the fault layer under concurrent
// cells) and require the rendered output — every completion time,
// timeout count, queue statistic, and throughput bin — to match the
// single-worker run exactly.

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tcptrim/internal/aqm"
	"tcptrim/internal/conformance"
	"tcptrim/internal/tcp"
)

// workerSweep is the GOMAXPROCS axis every determinism test sweeps. 1
// is the sequential baseline; 8 exceeds most sweeps' cell counts, so
// some workers sit idle.
var workerSweep = []int{1, 2, 4, 8}

// renderShardSweep renders one experiment at every worker count and
// fails the test on the first byte difference against one worker.
func renderShardSweep(t *testing.T, name string, render func(opts Options) ([]byte, error)) {
	t.Helper()
	var base []byte
	for _, procs := range workerSweep {
		prev := runtime.GOMAXPROCS(procs)
		out, err := render(Options{Seed: 7})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("%s GOMAXPROCS=%d: %v", name, procs, err)
		}
		if procs == 1 {
			base = out
			continue
		}
		if !bytes.Equal(base, out) {
			t.Errorf("%s diverges at GOMAXPROCS=%d:\n-- GOMAXPROCS=1 --\n%s\n-- GOMAXPROCS=%d --\n%s",
				name, procs, base, procs, out)
		}
	}
}

func TestImpairmentShardInvariant(t *testing.T) {
	renderShardSweep(t, "impairment", func(opts Options) ([]byte, error) {
		res, err := RunImpairment(ProtoTRIM, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteTables(&buf); err != nil {
			return nil, err
		}
		// The rendered table omits the traced series; fold their points in
		// so a sampler reading the wrong cell cannot hide.
		fmt.Fprintf(&buf, "cwnd=%v goodput=%v\n",
			res.TracedCwnd.Points(), res.TracedThroughput.Points())
		return buf.Bytes(), nil
	})
}

func TestConcurrencyShardInvariant(t *testing.T) {
	renderShardSweep(t, "concurrency", func(opts Options) ([]byte, error) {
		res, err := RunConcurrency(ProtoTCP, []int{2}, 4, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestLargeScaleShardInvariant(t *testing.T) {
	renderShardSweep(t, "largescale", func(opts Options) ([]byte, error) {
		opts.Reps = 1
		res, err := RunLargeScale([]Protocol{ProtoTRIM}, []int{3}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestFatTreeShardInvariant(t *testing.T) {
	renderShardSweep(t, "fattree", func(opts Options) ([]byte, error) {
		res, err := RunFatTree([]Protocol{ProtoTRIM}, []int{4}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestResilienceMatrixShardInvariant is the fault-scenario property test:
// the resilience matrix (GE bursty loss, a link flap, bounded reordering,
// and duplication on the bottleneck, invariant checker armed) must
// produce identical rows at every worker count.
func TestResilienceMatrixShardInvariant(t *testing.T) {
	renderShardSweep(t, "resilience", func(opts Options) ([]byte, error) {
		// [:3] spans clean, GE+reorder+dup (mild), and GE+flap+reorder+dup
		// (moderate) — every fault class the matrix injects.
		res, err := RunResilience([]Protocol{ProtoTRIM}, DefaultFaultIntensities[:3], opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestRecoverySweepShardInvariant covers the recovery × AQM × fault
// sweep, whose T-RACKs cells inject switch-agent signals and whose
// RACK-TLP cells arm probe timers — the rendered matrix (goodput, FCT
// percentiles, retransmission breakdowns, recovery times) must not
// depend on how many cells run at once.
func TestRecoverySweepShardInvariant(t *testing.T) {
	renderShardSweep(t, "recoverysweep", func(opts Options) ([]byte, error) {
		res, err := RunRecoverySweep(tcp.RecoveryNames(), []string{"droptail"},
			[]FaultIntensity{DefaultFaultIntensities[2]},
			[]int{aqm.TinyBufferPackets}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

func TestARCTShardInvariant(t *testing.T) {
	renderShardSweep(t, "arct", func(opts Options) ([]byte, error) {
		res, err := RunARCT([]Protocol{ProtoTRIM}, []int{64 << 10}, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = res.WriteTables(&buf)
		return buf.Bytes(), err
	})
}

// TestConformanceShardedSweep shadow-executes the oracle's randomized
// scenario matrix twice: once scenario by scenario, once sharded over
// four concurrent trial workers. Every scenario must report zero
// divergences and identical activity counters both ways — the TRIM
// policy cannot tell which worker carried its packets.
func TestConformanceShardedSweep(t *testing.T) {
	const seeds = 64
	run := func(i int) (*conformance.Result, error) {
		return conformance.RunScenario(conformance.GenScenario(SplitSeed(11, i)))
	}
	base := make([]*conformance.Result, seeds)
	for i := range base {
		res, err := run(i)
		if err != nil {
			t.Fatalf("seed %d: %v", SplitSeed(11, i), err)
		}
		base[i] = res
	}
	prev := runtime.GOMAXPROCS(4)
	sharded, err := RunTrials(seeds, run)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatalf("sharded sweep: %v", err)
	}
	for i, res := range sharded {
		seed := SplitSeed(11, i)
		for _, r := range []*conformance.Result{base[i], res} {
			if r.Total != 0 {
				t.Fatalf("seed %d: %d divergences, first: %v", seed, r.Total, r.Divergences[0])
			}
		}
		b := base[i]
		if res.Hooks != b.Hooks || res.ProbeRounds != b.ProbeRounds ||
			res.ProbeTimeouts != b.ProbeTimeouts ||
			res.QueueReductions != b.QueueReductions ||
			res.Timeouts != b.Timeouts || res.TrainsDone != b.TrainsDone {
			t.Fatalf("seed %d: sharded counters differ from sequential run:\n%+v\nvs\n%+v",
				seed, res, b)
		}
	}
}

// TestMillionSmokeShardInvariant: a fig8million cell's row must not
// depend on which other cells share its sweep — TRIM run alone matches
// TRIM run alongside TCP. Host resource figures (heap, wall time) are
// measurements, not simulation output, so they are left out.
func TestMillionSmokeShardInvariant(t *testing.T) {
	alone, err := RunMillion([]Protocol{ProtoTRIM}, MillionSmoke, Options{})
	if err != nil {
		t.Fatalf("TRIM alone: %v", err)
	}
	both, err := RunMillion([]Protocol{ProtoTCP, ProtoTRIM}, MillionSmoke, Options{})
	if err != nil {
		t.Fatalf("TCP+TRIM: %v", err)
	}
	if len(alone.Rows) != 1 || len(both.Rows) != 2 || both.Rows[1].Protocol != ProtoTRIM {
		t.Fatalf("unexpected rows: alone=%+v both=%+v", alone.Rows, both.Rows)
	}
	simOnly := func(r MillionRow) MillionRow {
		r.HeapBytes, r.BytesPerConn, r.NsPerConn, r.Wall = 0, 0, 0, 0
		return r
	}
	if a, b := simOnly(alone.Rows[0]), simOnly(both.Rows[1]); a != b {
		t.Errorf("TRIM row depends on its sweep:\nalone:    %+v\nwith TCP: %+v", a, b)
	}
}
