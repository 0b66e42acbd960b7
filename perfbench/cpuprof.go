package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the program packages (tcptrim/internal/<pkg>) whose CPU
// share the benchmark reports. Samples in any other package, the
// standard library, the benchmark itself or the runtime outside GC,
// write barriers and allocation land in "other".
var cpuLayers = []string{
	"sim", "netsim", "aqm", "tcp", "cc", "core", "hybrid", "httpapp",
	"metrics", "experiment", "cellcache", "service",
}

// Runtime attribution buckets, checked in this order: write-barrier
// frames are named runtime.gcWriteBarrier*, so they must be matched
// before the GC prefixes.
var runtimeBuckets = []struct {
	name     string
	prefixes []string
}{
	{"runtime.barrier", []string{
		"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.(*wbBuf).",
		"runtime.bulkBarrierPreWrite", "runtime.bulkBarrierBitmap",
	}},
	{"runtime.gc", []string{
		"runtime.gc", "runtime.scan", "runtime.greyobject", "runtime.markroot",
		"runtime.markBits", "runtime.(*gcWork).", "runtime.(*gcBits).",
		"runtime.findObject", "runtime.spanOf", "runtime.heapBits", "runtime.(*mspan).heapBits",
		"runtime.(*mspan).typePointersOf", "runtime.(*typePointers).", "runtime.typePointers",
		"runtime.sweepone", "runtime.bgsweep", "runtime.(*sweepLocked).", "runtime.(*mspan).sweep",
		"runtime.bgscavenge", "runtime.(*scavengerState).", "runtime.(*pageAlloc).scavenge",
		"runtime.(*gcControllerState).", "runtime.(*mheap).nextSpanForSweep",
	}},
	{"runtime.alloc", []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.nextFreeFast", "runtime.(*mcache).",
		"runtime.(*mcentral).", "runtime.(*mheap).alloc", "runtime.(*mspan).nextFreeIndex",
		"runtime.heapSetType", "runtime.memclrNoHeapPointers", "runtime.rawbyteslice",
		"runtime.rawstring", "runtime.(*mheap).allocSpan", "runtime.deductAssistCredit",
	}},
}

const layerPrefix = "tcptrim/internal/"

// attribute maps a leaf frame's function name to the bucket its CPU
// time is charged to: a cpuLayers package, runtime.gc, runtime.barrier,
// runtime.alloc, or other.
func attribute(fn string) string {
	if rest, ok := strings.CutPrefix(fn, layerPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	for _, b := range runtimeBuckets {
		for _, p := range b.prefixes {
			if strings.HasPrefix(fn, p) {
				return b.name
			}
		}
	}
	return "other"
}

// shareMetric names the per-layer metric a bucket's share is reported as.
func shareMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_share"
	}
	return bucket + ".cpu_share"
}

// cpuBuckets lists every bucket attribute can return.
func cpuBuckets() []string {
	out := append([]string(nil), cpuLayers...)
	for _, b := range runtimeBuckets {
		out = append(out, b.name)
	}
	return append(out, "other")
}

// cpuShares reduces CPU time per leaf function to shares per bucket.
// Every bucket gets an entry, and the shares sum to 1 whenever any
// sample was taken, so a renamed package moves its samples to other
// instead of dropping them.
func cpuShares(leaf map[string]int64) map[string]float64 {
	byBucket := map[string]int64{}
	var total int64
	for fn, v := range leaf {
		byBucket[attribute(fn)] += v
		total += v
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets() {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// addLeafWeights decodes a gzipped pprof CPU profile (profile.proto as
// runtime/pprof writes it) and adds each sample's CPU time to the
// function of its leaf frame. Only the fields that lead to a leaf
// function name are read: sample (2), location (4), function (5) and
// string_table (6).
func addLeafWeights(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]uint64{} // function id → string index
		locLeafFn = map[uint64]uint64{} // location id → innermost function id
	)
	p := pb{raw}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return err
		}
		if wire != 2 {
			if err := p.skip(wire); err != nil {
				return err
			}
			continue
		}
		msg, err := p.bytes()
		if err != nil {
			return err
		}
		switch field {
		case 2:
			locs, vals, err := decodeSample(msg)
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[len(vals)-1]})
			}
		case 4:
			id, fn, err := decodeLocation(msg)
			if err != nil {
				return err
			}
			locLeafFn[id] = fn
		case 5:
			id, name, err := decodeFunction(msg)
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(msg))
		}
	}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locLeafFn[s.leaf]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		into[name] += s.value
	}
	return nil
}

// decodeSample returns a Sample's location ids (field 1) and values
// (field 2), accepting packed and unpacked encodings.
func decodeSample(msg []byte) (locs []uint64, vals []int64, err error) {
	p := pb{msg}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return nil, nil, err
		}
		if field != 1 && field != 2 {
			if err := p.skip(wire); err != nil {
				return nil, nil, err
			}
			continue
		}
		var nums []uint64
		switch wire {
		case 0:
			v, err := p.varint()
			if err != nil {
				return nil, nil, err
			}
			nums = []uint64{v}
		case 2:
			b, err := p.bytes()
			if err != nil {
				return nil, nil, err
			}
			for q := (pb{b}); !q.done(); {
				v, err := q.varint()
				if err != nil {
					return nil, nil, err
				}
				nums = append(nums, v)
			}
		default:
			return nil, nil, errors.New("cpu profile: bad sample encoding")
		}
		for _, v := range nums {
			if field == 1 {
				locs = append(locs, v)
			} else {
				vals = append(vals, int64(v))
			}
		}
	}
	return locs, vals, nil
}

// decodeLocation returns a Location's id (field 1) and the function id
// of its first Line (field 4): with inlining the first line is the
// innermost function, the one the sample's time belongs to.
func decodeLocation(msg []byte) (id, fn uint64, err error) {
	p := pb{msg}
	first := true
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case field == 1 && wire == 0:
			if id, err = p.varint(); err != nil {
				return 0, 0, err
			}
		case field == 4 && wire == 2:
			line, err := p.bytes()
			if err != nil {
				return 0, 0, err
			}
			if !first {
				continue
			}
			first = false
			for q := (pb{line}); !q.done(); {
				f, w, err := q.key()
				if err != nil {
					return 0, 0, err
				}
				if f == 1 && w == 0 {
					if fn, err = q.varint(); err != nil {
						return 0, 0, err
					}
					continue
				}
				if err := q.skip(w); err != nil {
					return 0, 0, err
				}
			}
		default:
			if err := p.skip(wire); err != nil {
				return 0, 0, err
			}
		}
	}
	return id, fn, nil
}

// decodeFunction returns a Function's id (field 1) and the string index
// of its name (field 2).
func decodeFunction(msg []byte) (id, name uint64, err error) {
	p := pb{msg}
	for !p.done() {
		field, wire, err := p.key()
		if err != nil {
			return 0, 0, err
		}
		switch {
		case field == 1 && wire == 0:
			id, err = p.varint()
		case field == 2 && wire == 0:
			name, err = p.varint()
		default:
			err = p.skip(wire)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return id, name, nil
}

// pb reads protobuf wire format.
type pb struct{ b []byte }

var errTruncated = errors.New("cpu profile: truncated protobuf")

func (p *pb) done() bool { return len(p.b) == 0 }

func (p *pb) varint() (uint64, error) {
	var v uint64
	for i := 0; i < 10 && i < len(p.b); i++ {
		c := p.b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			p.b = p.b[i+1:]
			return v, nil
		}
	}
	return 0, errTruncated
}

func (p *pb) key() (field, wire int, err error) {
	k, err := p.varint()
	return int(k >> 3), int(k & 7), err
}

func (p *pb) bytes() ([]byte, error) {
	n, err := p.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p.b)) {
		return nil, errTruncated
	}
	b := p.b[:n]
	p.b = p.b[n:]
	return b, nil
}

func (p *pb) skip(wire int) error {
	var n int
	switch wire {
	case 0:
		_, err := p.varint()
		return err
	case 1:
		n = 8
	case 2:
		_, err := p.bytes()
		return err
	case 5:
		n = 4
	default:
		return fmt.Errorf("cpu profile: unknown wire type %d", wire)
	}
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}
