package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// selfTestArgsEnv makes the test binary act as the benchmark: TestMain
// runs the benchmark with these arguments and exits. The self-test
// starts the binary this way so TCPTRIM_INVARIANTS, which the simulator
// reads at start-up, applies to the whole run.
const selfTestArgsEnv = "PERFBENCH_SELFTEST_ARGS"

// heldOutSeed was not used while the benchmark was built and tuned.
const heldOutSeed = 7770

func TestMain(m *testing.M) {
	if os.Getenv(initOnlyEnv) != "" {
		os.Exit(0)
	}
	if args := os.Getenv(selfTestArgsEnv); args != "" {
		if err := run(strings.Fields(args), os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// benchmarkJSON reads the metric declarations from BENCHMARK.json at the
// repository root.
func benchmarkJSON(t *testing.T) (workloads []string, endToEndDefs, perLayerDefs []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range doc.EndToEnd {
		endToEndDefs = append(endToEndDefs, metricDef{m.Name, m.Unit})
	}
	for _, m := range doc.PerLayer {
		perLayerDefs = append(perLayerDefs, metricDef{m.Name, m.Unit})
	}
	return workloads, endToEndDefs, perLayerDefs
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	workloads, e2e, layers := benchmarkJSON(t)
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\n   code declares %v", e2e, endToEnd)
	}
	if fmt.Sprint(layers) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\n   code declares %v", layers, perLayer)
	}
	for _, w := range workloads {
		if _, ok := simWorkloads[w]; !ok && w != "svc" {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w)
		}
	}
	shares := map[string]bool{}
	for _, b := range cpuBuckets() {
		shares[shareMetric(b)] = true
	}
	for _, d := range perLayer {
		delete(shares, d.name)
	}
	for name := range shares {
		t.Errorf("CPU share %s is computed but not declared", name)
	}
}

// TestSelfTest runs every implemented workload — including incast,
// which BENCHMARK.json leaves out — at its smallest size with the
// simulator's invariant checks on, at the reference seed (where outputs
// are compared byte for byte with results_all.txt and the goldens) and
// at a held-out seed, in both modes. Every declared metric must be
// emitted with its unit and no operation may fail.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	workloads := []string{"svc"}
	for w := range simWorkloads {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int{refSeed, heldOutSeed} {
		for _, w := range workloads {
			for _, trace := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s/seed%d/trace%d", w, seed, trace), func(t *testing.T) {
					cmd := exec.Command(exe)
					cmd.Env = append(os.Environ(), "TCPTRIM_INVARIANTS=1",
						fmt.Sprintf("%s=--workload %s --seed %d --seconds 1 --trace %d", selfTestArgsEnv, w, seed, trace))
					var stderr bytes.Buffer
					cmd.Stderr = &stderr
					out, err := cmd.Output()
					if err != nil {
						t.Fatalf("%v\n%s", err, stderr.Bytes())
					}
					lines := strings.Split(strings.TrimSpace(string(out)), "\n")
					var res struct {
						Correct   bool `json:"correct"`
						Attempted int  `json:"attempted"`
						Failed    int  `json:"failed"`
						Metrics   map[string]struct {
							Value float64 `json:"value"`
							Unit  string  `json:"unit"`
						} `json:"metrics"`
					}
					if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
						t.Fatalf("last line is not the result object: %v\n%s", err, out)
					}
					if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("error_rate %d/%d, correct=%v\n%s", res.Failed, res.Attempted, res.Correct, stderr.Bytes())
					}
					defs := endToEnd
					if trace == 1 {
						defs = perLayer
					}
					if len(res.Metrics) != len(defs) {
						t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
					}
					for _, d := range defs {
						m, ok := res.Metrics[d.name]
						if !ok || m.Unit != d.unit {
							t.Errorf("metric %s: emitted=%v unit %q, want unit %q", d.name, ok, m.Unit, d.unit)
						}
						if trace == 0 && !(m.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
						}
					}
				})
			}
		}
	}
}
