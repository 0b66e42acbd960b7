package experiment

// Differential fidelity proof at the experiment layer: the figures that
// honor Options.Fidelity must render byte-identical tables at hybrid
// fidelity as at packet fidelity. Hybrid fidelity changes how idle connections are represented, not
// what happens on the wire, so every completion time, timeout count, and
// sampled series must survive the demote/materialize cycles exactly.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// renderFidelitySweep renders one experiment at fidelity packet and
// hybrid and fails on any byte difference between the two.
func renderFidelitySweep(t *testing.T, name string, render func(opts Options) ([]byte, error)) {
	t.Helper()
	var outs [2][]byte
	for i, fid := range []string{"packet", "hybrid"} {
		out, err := render(Options{Seed: 7, Fidelity: fid})
		if err != nil {
			t.Fatalf("%s fidelity=%s: %v", name, fid, err)
		}
		outs[i] = out
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("%s diverges at hybrid fidelity:\n-- packet --\n%s\n-- hybrid --\n%s",
			name, outs[0], outs[1])
	}
}

func TestImpairmentHybridInvariant(t *testing.T) {
	renderFidelitySweep(t, "impairment", func(opts Options) ([]byte, error) {
		res, err := RunImpairment(ProtoTRIM, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteTables(&buf); err != nil {
			return nil, err
		}
		// Fold the traced series in: the window trace reads through the
		// conn/store boundary, so a stale store value cannot hide.
		fmt.Fprintf(&buf, "cwnd=%v goodput=%v\n",
			res.TracedCwnd.Points(), res.TracedThroughput.Points())
		return buf.Bytes(), nil
	})
}

func TestLargeScaleHybridInvariant(t *testing.T) {
	renderFidelitySweep(t, "largescale", func(opts Options) ([]byte, error) {
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

// TestMillionSmoke runs the CI-sized fig8million configuration and
// asserts the scale layer held: everything completed, the materialized
// population stayed orders of magnitude below the fleet, and the heap
// footprint stayed inside the per-connection budget.
func TestMillionSmoke(t *testing.T) {
	res, err := RunMillion([]Protocol{ProtoTRIM}, MillionSmoke, Options{})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row.Completed != row.Scheduled || row.Scheduled != MillionSmoke.Flows() {
		t.Fatalf("completed %d of %d scheduled (want %d)",
			row.Completed, row.Scheduled, MillionSmoke.Flows())
	}
	if row.PeakLive == 0 || row.PeakLive > res.Conns/10 {
		t.Errorf("peak live %d of %d conns — hybrid layer not folding", row.PeakLive, res.Conns)
	}
	if row.ArenaCap != row.PeakLive {
		t.Errorf("arena slots %d != peak live %d", row.ArenaCap, row.PeakLive)
	}
	// Heap budget: flow store + timeline + collector are the O(conns)
	// terms, a few hundred bytes each; 2 KB/conn plus 16 MB of fixed
	// overhead (topology, schedulers, buffers) is a generous ceiling that
	// a packet-level fleet (tens of KB per conn) blows immediately.
	budget := uint64(16<<20) + uint64(2<<10)*uint64(res.Conns)
	if row.HeapBytes > budget {
		t.Errorf("heap %d B exceeds budget %d B (%.0f B/conn)",
			row.HeapBytes, budget, row.BytesPerConn)
	}
}

// TestMillionParallelCellsByteIdentical: RunMillion fans its protocol
// cells out over the trial workers, so the table must not depend on how
// many run at once (GOMAXPROCS).
func TestMillionParallelCellsByteIdentical(t *testing.T) {
	var base string
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := RunMillion([]Protocol{ProtoTCP, ProtoTRIM}, MillionSmoke, Options{})
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if len(res.Rows) != 2 || res.Rows[0].Protocol != ProtoTCP || res.Rows[1].Protocol != ProtoTRIM {
			t.Fatalf("GOMAXPROCS=%d: rows out of protocol order: %+v", procs, res.Rows)
		}
		var buf bytes.Buffer
		if err := res.WriteTables(&buf); err != nil {
			t.Fatal(err)
		}
		table := buf.String()[:strings.Index(buf.String(), "\n\n")]
		if base == "" {
			base = table
			continue
		}
		if table != base {
			t.Errorf("fig8million table diverges at GOMAXPROCS=%d:\n%s\nvs\n%s", procs, table, base)
		}
	}
}

// TestMillionPacketRefused pins the guard: the full configuration at
// packet fidelity must refuse to run rather than materialize a million
// connections.
func TestMillionPacketRefused(t *testing.T) {
	_, err := RunMillion([]Protocol{ProtoTRIM}, MillionFull, Options{Fidelity: "packet"})
	if err == nil || !strings.Contains(err.Error(), "packet fidelity") {
		t.Errorf("err = %v", err)
	}
}
