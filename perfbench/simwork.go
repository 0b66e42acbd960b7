package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"tcptrim/internal/experiment"
)

// simOp is one runner call. run renders the call's output; ref names
// the reference its output must equal at refSeed.
type simOp struct {
	name string
	ref  string
	run  func(b *bench, opts experiment.Options, out *bytes.Buffer) error
}

// simWorkload is a simulation workload: each pass makes every op's call
// at one sub-seed. passSeconds is the pass's host time on a 2-CPU
// machine, used only to size a run to --seconds.
type simWorkload struct {
	passSeconds float64
	ops         []simOp
	probe       func(b *bench, tr *tracer) (layerCounts, error)
}

// The simulation workloads. Sub-seeds run consecutively from --seed.
var simWorkloads = map[string]simWorkload{
	// Fig. 5 and Fig. 7: the incast star whose inherited windows
	// overflow the 100-packet buffer (RTOs, SACK holes, reassembly).
	// BENCHMARK.json leaves it out: the sub-seeds whose TCP trains stall
	// to the horizon make its host time too seed-dependent (README.md).
	"incast": {
		passSeconds: 0.75,
		ops: []simOp{
			{"experiment.Run fig5", "fig5", runnerOp("fig5")},
			{"experiment.Run fig7", "fig7", runnerOp("fig7")},
		},
		probe: probeIncast,
	},
	// Fig. 8(b) on the two-level tree at packet fidelity, TCP-TRIM half:
	// multi-hop and event-heavy with almost no losses.
	"tree": {
		passSeconds: 0.95,
		ops:         []simOp{{"experiment.RunLargeScale", "golden:tree", treeOp}},
		probe:       probeTree,
	},
	// fig8million at 30k connections on the hybrid fidelity layer.
	"fleet": {
		passSeconds: 2.6,
		ops:         []simOp{{"experiment.RunMillion", "golden:fleet", fleetOp}},
		probe:       probeFleet,
	},
}

func runnerOp(id string) func(*bench, experiment.Options, *bytes.Buffer) error {
	return func(_ *bench, opts experiment.Options, out *bytes.Buffer) error {
		return experiment.Run(id, opts, out)
	}
}

// treeTors are the tree sizes of BENCH_5's Fig8LargeScale.
var treeTors = []int{5, 15}

func treeOp(_ *bench, opts experiment.Options, out *bytes.Buffer) error {
	opts.Reps = 1
	res, err := experiment.RunLargeScale([]experiment.Protocol{experiment.ProtoTRIM}, treeTors, opts)
	if err != nil {
		return err
	}
	return res.WriteTables(out)
}

// fleetConfig is MillionSmoke with 300 connections per server: 5 ToRs ×
// 20 servers × 300 = 30k connections.
func fleetConfig() experiment.MillionConfig {
	cfg := experiment.MillionSmoke
	cfg.ConnsPerServer = 300
	return cfg
}

func fleetOp(b *bench, opts experiment.Options, out *bytes.Buffer) error {
	res, err := experiment.RunMillion([]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM}, fleetConfig(), opts)
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		b.bytesPerConn = append(b.bytesPerConn, row.BytesPerConn)
	}
	var buf bytes.Buffer
	if err := res.WriteTables(&buf); err != nil {
		return err
	}
	// The resources lines report heap and wall clock: machine-dependent.
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if !strings.Contains(sc.Text(), " resources: ") {
			fmt.Fprintln(out, sc.Text())
		}
	}
	return sc.Err()
}

// cellCounter counts finished cells through the runners' Progress hook
// (traced passes only).
type cellCounter struct{ n atomic.Int64 }

func (c *cellCounter) Publish(ev experiment.ProgressEvent) {
	if ev.Kind == "cell" {
		c.n.Add(1)
	}
}

// simRun holds what one run has seen of its ops' outputs: the digest of
// the first output per (op, sub-seed), which every later call must
// reproduce.
type simRun struct {
	b       *bench
	w       simWorkload
	digests map[string][32]byte
	// incomplete counts calls that ended with flows incomplete.
	incomplete int
}

// incompleteFlows matches the error the concurrency runners (fig5,
// fig7) return when a short train has not completed by the horizon —
// at some seeds a lone tail segment stalls without an armed RTO.
var incompleteFlows = regexp.MustCompile(`^concurrency cell L=\d+ S=\d+: \d+ of \d+ SPTs completed$`)

// pass makes every op's call at seed and returns its latency in ms. A
// traced pass records spans and counts cells.
func (r *simRun) pass(seed int64, tr *tracer, cells *cellCounter) float64 {
	root, end := tr.begin(0, fmt.Sprintf("pass seed %d", seed))
	defer end()
	t0 := time.Now()
	for _, op := range r.w.ops {
		opts := experiment.Options{Seed: seed}
		if cells != nil {
			opts.Progress = cells
		}
		var out bytes.Buffer
		_, endOp := tr.begin(root, op.name)
		err := op.run(r.b, opts, &out)
		endOp()
		if err != nil && incompleteFlows.MatchString(err.Error()) {
			// A flow still open at the horizon is a simulated outcome,
			// not a failure; the outcome must repeat like any output.
			r.incomplete++
			out.Reset()
			out.WriteString(err.Error())
			err = nil
		}
		if err == nil {
			err = r.verify(op, seed, out.Bytes())
		}
		r.b.op(err)
	}
	return float64(time.Since(t0)) / 1e6
}

// verify checks an output against its reference (at refSeed) and
// against the first output of the same call in this run.
func (r *simRun) verify(op simOp, seed int64, out []byte) error {
	key := fmt.Sprintf("%s@%d", op.name, seed)
	sum := sha256.Sum256(out)
	if first, ok := r.digests[key]; ok {
		if first != sum {
			return fmt.Errorf("%s: repeated call produced different output", key)
		}
		return nil
	}
	r.digests[key] = sum
	return r.b.refs.check(op.ref, seed, out)
}

// sizeSeeds returns how many sub-seeds a run of seconds visits: each is
// run cold and then warm, so a run makes two passes per sub-seed.
func sizeSeeds(seconds int, passSeconds float64) int {
	return max(1, int(math.Round(float64(seconds)/(2*passSeconds))))
}

func (b *bench) runSim(w simWorkload) error {
	setup, err := b.measureSetup(func(bool) error { return b.loadRefs() })
	if err != nil {
		return err
	}
	r := &simRun{b: b, w: w, digests: map[string][32]byte{}}
	seeds := sizeSeeds(b.cfg.seconds, w.passSeconds)
	if !b.cfg.trace {
		b.metrics["setup_s"] = setup
		var d delta
		var coldLat, warmLat []float64
		for i := 0; i < seeds; i++ {
			for _, lat := range []*[]float64{&coldLat, &warmLat} {
				u0 := readUsage()
				*lat = append(*lat, r.pass(b.cfg.seed+int64(i), nil, nil))
				d.add(u0, readUsage())
			}
		}
		b.setEndToEnd(d, coldLat, warmLat)
		b.note("passes: sub-seeds %d..%d, each cold then warm; %d calls ended with flows incomplete at the horizon (outcomes, not failures)",
			b.cfg.seed, b.cfg.seed+int64(seeds-1), r.incomplete)
		return nil
	}

	// Traced: after one warm-up pass, the same sub-seeds once untraced
	// and once traced, in ABBA order so drift favours neither side.
	b.zeroLayers()
	r.pass(b.cfg.seed, nil, nil)
	tr := newTracer()
	var untraced, traced delta
	leaf := map[string]int64{}
	cells := &cellCounter{}
	for i := 0; i < seeds; i++ {
		seed := b.cfg.seed + int64(i)
		for _, withTrace := range [][2]bool{{false, true}, {true, false}}[i%2] {
			if !withTrace {
				u0 := readUsage()
				r.pass(seed, nil, nil)
				untraced.add(u0, readUsage())
				continue
			}
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			u0 := readUsage()
			r.pass(seed, tr, cells)
			traced.add(u0, readUsage())
			pprof.StopCPUProfile()
			if err := addLeafWeights(prof.Bytes(), leaf); err != nil {
				return err
			}
		}
	}
	shares := cpuShares(leaf)
	b.setShares(shares)
	b.setRuntime(untraced, traced)
	b.metrics["experiment.cells"] = float64(cells.n.Load()) / float64(seeds)
	if len(b.bytesPerConn) > 0 {
		b.metrics["hybrid.heap_b_per_conn"] = percentile(b.bytesPerConn, 50)
	}
	counts, err := w.probe(b, tr)
	if err != nil {
		return err
	}
	counts.store(b.metrics)
	b.note("traced: after a warm-up pass, %d sub-seeds each untraced and traced; layer probe cells: %s", seeds, counts)
	return b.writeTrace(tr.finish(), shares)
}

// writeGoldens regenerates golden/tree.txt and golden/fleet.txt at
// refSeed, for use when an output change is intended.
func (b *bench) writeGoldens() error {
	for _, name := range []string{"tree", "fleet"} {
		op := simWorkloads[name].ops[0]
		var out bytes.Buffer
		if err := op.run(b, experiment.Options{Seed: refSeed}, &out); err != nil {
			return err
		}
		path := filepath.Join(b.root, "perfbench", "golden", name+".txt")
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}
