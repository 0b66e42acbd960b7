package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := map[string]string{
		"tcptrim/internal/sim.(*Scheduler).RunUntil":             "sim",
		"tcptrim/internal/sim.(*wheel).findMin":                  "sim",
		"tcptrim/internal/netsim.(*Pipe).Send":                   "netsim",
		"tcptrim/internal/tcp.(*Conn).insertOutOfOrder":          "tcp",
		"tcptrim/internal/core.(*Trim).OnAck":                    "core",
		"tcptrim/internal/cc.(*DCTCP).OnAck":                     "cc",
		"tcptrim/internal/aqm.(*CoDel).OnDequeue":                "aqm",
		"tcptrim/internal/hybrid.(*Fleet).sweep":                 "hybrid",
		"tcptrim/internal/httpapp.(*Collector).Add":              "httpapp",
		"tcptrim/internal/metrics.(*Distribution).Add":           "metrics",
		"tcptrim/internal/experiment.RunTrialsWorkers.func1":     "experiment",
		"tcptrim/internal/cellcache.(*Store).Get":                "cellcache",
		"tcptrim/internal/service.(*Server).handleSubmit":        "service",
		"runtime.gcWriteBarrier2":                                "runtime.barrier",
		"runtime.wbBufFlush1":                                    "runtime.barrier",
		"runtime.bulkBarrierPreWrite":                            "runtime.barrier",
		"runtime.gcDrain":                                        "runtime.gc",
		"runtime.scanobject":                                     "runtime.gc",
		"runtime.greyobject":                                     "runtime.gc",
		"runtime.(*gcWork).tryGet":                               "runtime.gc",
		"runtime.mallocgc":                                       "runtime.alloc",
		"runtime.growslice":                                      "runtime.alloc",
		"runtime.(*mcache).refill":                               "runtime.alloc",
		"tcptrim/internal/topology.NewTwoLevelTree":              "other",
		"tcptrim/internal/renamedlayer.(*Thing).Do":              "other",
		"tcptrim/internal/simulator.Run":                         "other",
		"tcptrim.NewScheduler":                                   "other",
		"main.(*bench).runSim":                                   "other",
		"runtime.futex":                                          "other",
		"syscall.Syscall6":                                       "other",
		"net/http.(*conn).serve":                                 "other",
		"?":                                                      "other",
		"github.com/example/tcptrim/internal/sim.(*X).Y":         "other",
		"tcptrim/internal/sim/sub.F":                             "sim",
		"tcptrim/internal/netsim.(*Network).forward[...].func1":  "netsim",
		"tcptrim/internal/experiment.cachedCell[...]":            "experiment",
		"tcptrim/internal/experiment.RunTrials[go.shape.*uint8]": "experiment",
	}
	for fn, want := range cases {
		if got := attribute(fn); got != want {
			t.Errorf("attribute(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	leaf := map[string]int64{
		"tcptrim/internal/sim.(*Scheduler).RunUntil": 40,
		"tcptrim/internal/netsim.(*Pipe).Send":       30,
		"tcptrim/internal/renamedlayer.F":            10,
		"runtime.gcWriteBarrier2":                    5,
		"runtime.scanobject":                         5,
		"runtime.mallocgc":                           5,
		"syscall.Syscall6":                           5,
	}
	shares := cpuShares(leaf)
	if len(shares) != len(cpuBuckets()) {
		t.Fatalf("got %d buckets, want %d", len(shares), len(cpuBuckets()))
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	want := map[string]float64{"sim": .4, "netsim": .3, "other": .15, "runtime.barrier": .05, "runtime.gc": .05, "runtime.alloc": .05, "tcp": 0}
	for b, w := range want {
		if math.Abs(shares[b]-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", b, shares[b], w)
		}
	}
	for b, v := range cpuShares(nil) {
		if v != 0 {
			t.Errorf("empty profile: share[%s] = %v, want 0", b, v)
		}
	}
}

// TestAddLeafWeightsDecodesRealProfile profiles a busy loop in this
// function and checks the decoder finds it as a leaf.
func TestAddLeafWeightsDecodesRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaf := map[string]int64{}
	if err := addLeafWeights(buf.Bytes(), leaf); err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for fn, v := range leaf {
		total += v
		if strings.HasSuffix(fn, ".spin") {
			inSpin += v
		}
	}
	if total == 0 {
		t.Fatal("decoded no samples")
	}
	if inSpin*2 < total {
		t.Errorf("spin has %d of %d ns; want most of the profile: %v", inSpin, total, leaf)
	}
	if err := addLeafWeights([]byte("not a profile"), leaf); err == nil {
		t.Error("garbage input decoded without error")
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 20},
	}
	got := map[string]int64{}
	for _, s := range tr.finish() {
		got[s.Name] = s.Self
	}
	want := map[string]int64{"root": 100 - 50 - 10, "a": 25, "b": 30, "c": 30, "d": 5}
	for n, w := range want {
		if got[n] != w {
			t.Errorf("self[%s] = %d, want %d", n, got[n], w)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, 50: 2.5, 90: 3.7, 100: 4} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should give 0")
	}
}
