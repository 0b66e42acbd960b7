// Command perfbench is the repository's benchmark. It drives the
// simulator only through its public entry points — the experiment
// runners, the trimsvc HTTP API over loopback, and (for the traced layer
// probe) the topology/httpapp/hybrid constructors and the tcptrim facade
// — checks every output against its reference, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload tree --seed 1 --seconds 30 --trace 0
//
// Workloads: incast, tree, fleet, svc (see README.md). With --trace 0 the
// end-to-end metrics are reported; with --trace 1 the same operations run
// once untraced and once traced (spans, CPU profile) followed by the
// layer probe, and the per-layer metrics are reported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// initOnlyEnv makes the process exit right after package initialization;
// set-up time is measured by starting the benchmark binary this way.
const initOnlyEnv = "PERFBENCH_INIT_ONLY"

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 21

func main() {
	if os.Getenv(initOnlyEnv) != "" {
		return
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	writeGolden bool
}

// machine is recorded with every result so each figure names the core
// count and build it was measured on.
type machine struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newMachine(cfg config) machine {
	m := machine{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				m.Dirty = s.Value == "true"
			}
		}
	}
	return m
}

// bench is the state of one benchmark run.
type bench struct {
	cfg     config
	root    string
	outDir  string
	refs    references
	machine machine
	stderr  io.Writer

	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
	metrics   map[string]float64

	// bytesPerConn collects MillionRow.BytesPerConn from fleet calls.
	bytesPerConn []float64
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: incast, tree, fleet or svc")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; inputs are a pure function of it")
	fs.IntVar(&cfg.seconds, "seconds", 30, "run length the operation counts are sized for")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.writeGolden, "write-golden", false, "regenerate golden/ for tree and fleet at seed 1 and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if n, p := runtime.NumCPU(), runtime.GOMAXPROCS(0); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; results would not name a real core count", p, n)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	b := &bench{cfg: cfg, root: root, outDir: filepath.Join(root, ".bench_build"),
		machine: newMachine(cfg), stderr: stderr, metrics: map[string]float64{}}
	if cfg.writeGolden {
		return b.writeGoldens()
	}
	if cfg.workload == "svc" {
		err = b.runSvc()
	} else if w, ok := simWorkloads[cfg.workload]; ok {
		err = b.runSim(w)
	} else {
		return fmt.Errorf("unknown --workload %q (incast, tree, fleet, svc)", cfg.workload)
	}
	if err != nil {
		return err
	}
	return b.report(stdout)
}

// op records one attempted operation and whether it failed.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintln(b.stderr, "perfbench: operation failed:", err)
		}
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// measureSetup performs set-up setupReps times and returns the median in
// seconds. Each repetition starts a fresh benchmark process that only
// runs package initialization (what every invocation of the program
// pays), then calls fn, which does the workload's own set-up; last is
// true on the final repetition, whose result the run keeps.
func (b *bench) measureSetup(fn func(last bool) error) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), initOnlyEnv+"=1")
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up: start process: %w", err)
		}
		if err := fn(i == setupReps-1); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return percentile(ds, 50), nil
}

// loadRefs is the part of set-up every workload shares.
func (b *bench) loadRefs() error {
	refs, err := loadReferences(b.root)
	if err != nil {
		return err
	}
	b.refs = refs
	return nil
}

// report prints the machine record, notes and metrics as comment lines,
// then the result object as the last line.
func (b *bench) report(w io.Writer) error {
	defs := endToEnd
	if b.cfg.trace {
		defs = perLayer
	}
	mj, err := json.Marshal(b.machine)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# machine %s\n", mj)
	for _, n := range b.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(w, "# error_rate %g (%d failed of %d attempted)\n", errRate, b.failed, b.attempted)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "# %-26s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	if out.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeTrace writes the traced run's spans, per-name self times and CPU
// attribution under .bench_build/trace and notes the path.
func (b *bench) writeTrace(spans []span, shares map[string]float64) error {
	dir := filepath.Join(b.outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Machine  machine              `json:"machine"`
		SelfTime map[string]spanTotal `json:"self_time_by_name"`
		CPUShare map[string]float64   `json:"cpu_share"`
		Spans    []span               `json:"spans"`
	}{b.machine, selfByName(spans), shares, spans}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(doc.SelfTime))
	for n := range doc.SelfTime {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := doc.SelfTime[n]
		b.note("span %-34s count %5d total %10.2f ms self %10.2f ms", n, t.Count, t.TotalMs, t.SelfMs)
	}
	b.note("spans written to %s", path)
	return nil
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcs     uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// delta accumulates the resource use between two readings.
type delta struct {
	wall, cpu   time.Duration
	alloc       uint64
	mallocs     uint64
	gcs, passes int
}

func (d *delta) add(a, z usage) {
	d.wall += z.wall.Sub(a.wall)
	d.cpu += z.cpu - a.cpu
	d.alloc += z.alloc - a.alloc
	d.mallocs += z.mallocs - a.mallocs
	d.gcs += int(z.gcs - a.gcs)
	d.passes++
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setEndToEnd stores the resource metrics every workload reports.
func (b *bench) setEndToEnd(d delta, cold, warm []float64) {
	b.metrics["wall_s"] = d.wall.Seconds()
	b.metrics["cpu_s"] = d.cpu.Seconds()
	b.metrics["alloc_mb"] = float64(d.alloc) / 1e6
	b.metrics["heap_live_mb"] = liveHeapMB()
	b.metrics["cold_p50_ms"] = percentile(cold, 50)
	b.metrics["cold_p75_ms"] = percentile(cold, 75)
	b.metrics["warm_p50_ms"] = percentile(warm, 50)
	b.metrics["warm_p75_ms"] = percentile(warm, 75)
	b.note("samples: cold %d, warm %d", len(cold), len(warm))
}

// setRuntime stores the per-layer runtime counters and parallel
// efficiency of the untraced half of a traced run, and the tracing
// overhead against its traced half.
func (b *bench) setRuntime(untraced, traced delta) {
	if untraced.passes == 0 || untraced.wall <= 0 {
		return
	}
	n := float64(untraced.passes)
	b.metrics["runtime.gc_cycles"] = float64(untraced.gcs) / n
	b.metrics["runtime.allocs"] = float64(untraced.mallocs) / n
	b.metrics["experiment.parallel_eff"] = untraced.cpu.Seconds() / (untraced.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	b.metrics["bench.trace_overhead"] = traced.wall.Seconds()/untraced.wall.Seconds() - 1
}

// setShares stores the CPU attribution as per-layer metrics.
func (b *bench) setShares(shares map[string]float64) {
	for bucket, v := range shares {
		b.metrics[shareMetric(bucket)] = v
	}
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
