package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"tcptrim/internal/service"
)

// The svc workload: an in-process trimsvc on a fresh cache directory,
// served over loopback HTTP to two closed-loop clients. A request is
// POST /v1/runs, the run's SSE stream up to its terminal event, then GET
// /v1/runs/{id}/result; each of the three HTTP calls is one operation.
const (
	// svcRoundSeconds is one cold round's host time on a 2-CPU machine,
	// used only to size a run to --seconds.
	svcRoundSeconds = 0.75
	// svcWarmPerRound is the number of warm requests per cold round.
	svcWarmPerRound = 600
)

// svcRound is one cold round at sub-seed s: per step, the specs clients
// A and B submit together. Every spec is new to the server, except that
// abl-inherit and ext-delay find part of their cells already stored —
// the TCP and TCP-TRIM impairment cells that fig4 and fig6 simulated
// earlier in the round — and that both clients submit the same fig6.
func svcRound(s int64) [][2]service.RunSpec {
	spec := func(id string) service.RunSpec { return service.RunSpec{Runner: id, Seed: s} }
	return [][2]service.RunSpec{
		{spec("aqmsweep-smoke"), spec("resilience-smoke")},
		{spec("fig4"), spec("recoverysweep-smoke")},
		{spec("resilience"), spec("recoverysweep")},
		{spec("fig6"), spec("fig6")},
		{spec("abl-inherit"), spec("ext-delay")},
		{spec("fig1"), spec("fig2")},
	}
}

func specKey(s service.RunSpec) string { return fmt.Sprintf("%s@%d", s.Runner, s.Seed) }

// svcServer is one in-process trimsvc listening on loopback.
type svcServer struct {
	svc    *service.Server
	hs     *http.Server
	served chan error
	dir    string
	base   string
	hc     *http.Client
}

// startSvc builds a server on a fresh cache directory under tmpRoot and
// returns once it answers GET /v1/stats.
func startSvc(tmpRoot string) (*svcServer, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "svc-cache-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background()) // nothing is running yet
		os.RemoveAll(dir)
		return nil, err
	}
	s := &svcServer{
		svc: svc, hs: &http.Server{Handler: svc}, served: make(chan error, 1), dir: dir,
		base: "http://" + ln.Addr().String(), hc: &http.Client{Timeout: time.Minute},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if _, err := s.stats(); err != nil {
		return nil, errors.Join(err, s.stop())
	}
	return s, nil
}

// stats reads GET /v1/stats.
func (s *svcServer) stats() (map[string]any, error) {
	resp, err := s.hc.Get(s.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return m, nil
}

// stop shuts the HTTP server and the service down, waits for both, and
// removes the cache directory.
func (s *svcServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.hc.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if e := <-s.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	return errors.Join(err, s.svc.Shutdown(ctx), os.RemoveAll(s.dir))
}

// svcClient is one closed-loop client on its own connection.
type svcClient struct {
	b    *bench
	hc   *http.Client
	base string
	tr   *tracer
}

func newSvcClient(b *bench, base string, tr *tracer) *svcClient {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &svcClient{b: b, hc: &http.Client{Transport: t, Timeout: time.Minute}, base: base, tr: tr}
}

// request submits spec, follows its events to the terminal one and
// fetches the result, which verify must accept. It returns the
// submit-to-result latency in ms; ok is false if any call failed. If
// queued is not nil it is closed once the submission returns.
func (c *svcClient) request(spec service.RunSpec, verify func([]byte) error, queued chan<- struct{}) (ms float64, ok bool) {
	root, end := c.tr.begin(0, "request "+spec.Runner)
	defer end()
	t0 := time.Now()
	id, err := c.submit(root, spec)
	if queued != nil {
		close(queued)
	}
	c.b.op(err)
	if err != nil {
		return 0, false
	}
	err = c.wait(root, id)
	c.b.op(err)
	if err != nil {
		return 0, false
	}
	out, err := c.result(root, id)
	if err == nil {
		err = verify(out)
	}
	c.b.op(err)
	return float64(time.Since(t0)) / 1e6, err == nil
}

func (c *svcClient) submit(root int, spec service.RunSpec) (string, error) {
	_, end := c.tr.begin(root, "POST /v1/runs")
	defer end()
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Post(c.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body) // best effort, for the error text
		return "", fmt.Errorf("POST /v1/runs %s: %s %s", specKey(spec), resp.Status, bytes.TrimSpace(msg))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return "", fmt.Errorf("POST /v1/runs %s: %w", specKey(spec), err)
	}
	return job.ID, nil
}

// wait reads the run's SSE stream until its terminal event, which must
// be "done".
func (c *svcClient) wait(root int, id string) error {
	_, end := c.tr.begin(root, "GET /v1/runs/{id}/events")
	defer end()
	resp, err := c.hc.Get(c.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	terminal := ""
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok || terminal != "" {
			continue
		}
		var ev struct {
			Kind  string `json:"kind"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Kind {
		case "done":
			terminal = ev.Kind
		case "error", "canceled", "shutdown":
			return fmt.Errorf("run %s ended %s: %s", id, ev.Kind, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	if terminal == "" {
		return fmt.Errorf("events %s: stream ended without a terminal event", id)
	}
	return nil
}

func (c *svcClient) result(root int, id string) ([]byte, error) {
	_, end := c.tr.begin(root, "GET /v1/runs/{id}/result")
	defer end()
	resp, err := c.hc.Get(c.base + "/v1/runs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET result %s: %s %s", id, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// svcPhase is the outcome of one cold+warm sequence against one server.
type svcPhase struct {
	cold, warm []float64
	use        delta
}

// runSvcPhase drives rounds cold rounds from sub-seed seed and then warm
// requests for specs already served, checking every result.
func (b *bench) runSvcPhase(s *svcServer, seed int64, rounds, warm int, tr *tracer) svcPhase {
	clients := [2]*svcClient{newSvcClient(b, s.base, tr), newSvcClient(b, s.base, tr)}
	defer func() {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
	}()
	var (
		mu     sync.Mutex
		served = map[string][]byte{}
		order  []service.RunSpec
		ph     svcPhase
	)
	// coldVerify stores a spec's first result (checked against its
	// reference at refSeed); a duplicate submission must match it.
	coldVerify := func(spec service.RunSpec) func([]byte) error {
		return func(out []byte) error {
			mu.Lock()
			defer mu.Unlock()
			key := specKey(spec)
			if first, ok := served[key]; ok {
				if !bytes.Equal(first, out) {
					return fmt.Errorf("%s: duplicate submissions returned different results", key)
				}
				return nil
			}
			served[key] = out
			order = append(order, spec)
			return b.refs.check(spec.Runner, spec.Seed, out)
		}
	}

	u0 := readUsage()
	for r := 0; r < rounds; r++ {
		for _, step := range svcRound(seed + int64(r)) {
			// B submits as soon as A's submission returns, so the
			// service's worker takes the pair in a fixed order.
			aQueued := make(chan struct{})
			var wg sync.WaitGroup
			for k := range clients {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					var queued chan<- struct{}
					if k == 0 {
						queued = aQueued
					} else {
						<-aQueued
					}
					ms, ok := clients[k].request(step[k], coldVerify(step[k]), queued)
					if ok {
						mu.Lock()
						ph.cold = append(ph.cold, ms)
						mu.Unlock()
					}
				}(k)
			}
			wg.Wait()
		}
	}
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < warm && len(order) > 0; i += len(clients) {
				spec := order[i%len(order)]
				want := served[specKey(spec)]
				ms, ok := clients[k].request(spec, func(out []byte) error {
					if !bytes.Equal(want, out) {
						return fmt.Errorf("%s: warm result differs from the cold result", specKey(spec))
					}
					return nil
				}, nil)
				if ok {
					mu.Lock()
					ph.warm = append(ph.warm, ms)
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	ph.use.add(u0, readUsage())
	return ph
}

func (b *bench) runSvc() error {
	tmp := filepath.Join(b.outDir, "tmp")
	var srv *svcServer
	setup, err := b.measureSetup(func(last bool) error {
		if err := b.loadRefs(); err != nil {
			return err
		}
		s, err := startSvc(tmp)
		if err != nil {
			return err
		}
		if last {
			srv = s
			return nil
		}
		return s.stop()
	})
	if err != nil {
		return err
	}
	rounds := int(math.Round(float64(b.cfg.seconds) / svcRoundSeconds * 0.75))
	if rounds < 1 {
		rounds = 1
	}
	warm := rounds * svcWarmPerRound

	if !b.cfg.trace {
		b.metrics["setup_s"] = setup
		ph := b.runSvcPhase(srv, b.cfg.seed, rounds, warm, nil)
		b.setEndToEnd(ph.use, ph.cold, ph.warm)
		b.note("rounds: %d cold (sub-seeds %d..%d, %d requests each), %d warm requests",
			rounds, b.cfg.seed, b.cfg.seed+int64(rounds-1), 2*len(svcRound(0)), warm)
		return srv.stop()
	}

	// Traced: one warm-up round on the set-up server, then the same
	// rounds on a fresh server untraced and on another traced and
	// profiled.
	b.zeroLayers()
	half := max(1, rounds/2)
	b.runSvcPhase(srv, b.cfg.seed+int64(half), 1, svcWarmPerRound, nil)
	if err := srv.stop(); err != nil {
		return err
	}
	if srv, err = startSvc(tmp); err != nil {
		return err
	}
	untraced := b.runSvcPhase(srv, b.cfg.seed, half, half*svcWarmPerRound, nil)
	if err := srv.stop(); err != nil {
		return err
	}
	if srv, err = startSvc(tmp); err != nil {
		return err
	}
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return errors.Join(err, srv.stop())
	}
	traced := b.runSvcPhase(srv, b.cfg.seed, half, half*svcWarmPerRound, tr)
	pprof.StopCPUProfile()
	stats, err := srv.stats()
	if err = errors.Join(err, srv.stop()); err != nil {
		return err
	}
	leaf := map[string]int64{}
	if err := addLeafWeights(prof.Bytes(), leaf); err != nil {
		return err
	}
	shares := cpuShares(leaf)
	b.setShares(shares)
	b.setRuntime(untraced.use, traced.use)
	b.storeSvcStats(stats)
	spans := tr.finish()
	b.metrics["service.submit_p50_ms"] = percentile(durationsMs(spans, "POST /v1/runs"), 50)
	b.metrics["service.wait_p50_ms"] = percentile(durationsMs(spans, "GET /v1/runs/{id}/events"), 50)
	b.metrics["service.result_p50_ms"] = percentile(durationsMs(spans, "GET /v1/runs/{id}/result"), 50)
	b.note("traced: after a warm-up round, %d rounds and %d warm requests each untraced and traced", half, half*svcWarmPerRound)
	return b.writeTrace(spans, shares)
}

// storeSvcStats maps GET /v1/stats counters to per-layer metrics. The
// read is lenient: a counter the service no longer reports leaves its
// metric absent instead of failing the run.
func (b *bench) storeSvcStats(stats map[string]any) {
	num := func(field string) (float64, bool) {
		v, ok := stats[field].(float64)
		return v, ok
	}
	for metric, field := range map[string]string{
		"service.simulations":    "simulations",
		"service.run_cache_hits": "cacheHits",
		"service.jobs":           "jobs",
		"cellcache.hits":         "cellHits",
		"cellcache.misses":       "cellMisses",
		"cellcache.cells_stored": "cachedCells",
	} {
		if v, ok := num(field); ok {
			b.metrics[metric] = v
		} else {
			delete(b.metrics, metric)
		}
	}
	hits, okH := num("cellHits")
	misses, okM := num("cellMisses")
	if okH && okM && hits+misses > 0 {
		b.metrics["cellcache.hit_ratio"] = hits / (hits + misses)
		b.metrics["experiment.cells"] = hits + misses
	} else {
		delete(b.metrics, "cellcache.hit_ratio")
		delete(b.metrics, "experiment.cells")
	}
}
