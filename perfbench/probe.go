package main

import (
	"fmt"
	"strings"
	"time"

	"tcptrim"
	"tcptrim/internal/httpapp"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// The layer probe builds one representative cell of a simulation
// workload through the exported constructors and reads every layer's
// counters after it runs: the runners keep their networks private, so
// this is where the per-layer counts come from. The cells mirror the
// runners' scenarios (same topology, protocol, traffic and stop rule);
// they need not reproduce the runners' random draws.

// layerCounts are the probe's readings, summed over its cells.
type layerCounts struct {
	cells                     []string
	events                    uint64
	runNs                     int64
	pktHops, tailDrops        int
	queueMax                  int
	segs, acks, retrans, rtos int
	probeRounds, queueCuts    int
	flows, peakLive, arenaCap int
	buildNs                   int64
	responses, pending        int
}

func (c layerCounts) store(m map[string]float64) {
	m["sim.events"] = float64(c.events)
	m["netsim.pkt_hops"] = float64(c.pktHops)
	if c.events > 0 {
		m["sim.ns_per_event"] = float64(c.runNs) / float64(c.events)
	}
	if c.pktHops > 0 {
		m["netsim.ns_per_hop"] = float64(c.runNs) / float64(c.pktHops)
	}
	m["netsim.tail_drops"] = float64(c.tailDrops)
	m["netsim.queue_max_pkts"] = float64(c.queueMax)
	m["tcp.segs_sent"] = float64(c.segs)
	m["tcp.acks_sent"] = float64(c.acks)
	m["tcp.retrans_segs"] = float64(c.retrans)
	m["tcp.timeouts"] = float64(c.rtos)
	m["core.probe_rounds"] = float64(c.probeRounds)
	m["core.queue_reductions"] = float64(c.queueCuts)
	m["hybrid.flows"] = float64(c.flows)
	m["hybrid.peak_live"] = float64(c.peakLive)
	m["hybrid.arena_cap"] = float64(c.arenaCap)
	m["hybrid.build_ms"] = float64(c.buildNs) / 1e6
	m["httpapp.responses"] = float64(c.responses)
	m["httpapp.pending"] = float64(c.pending)
}

// network adds the scheduler and fabric counters of one finished cell.
func (c *layerCounts) network(sched *sim.Scheduler, net *netsim.Network) {
	c.events += sched.Fired()
	for id := 0; id < net.Nodes(); id++ {
		for _, p := range net.PipesFrom(netsim.NodeID(id)) {
			c.pktHops += p.Stats().SentPackets
			if q := p.Queue(); q != nil {
				qs := q.Stats()
				c.tailDrops += qs.TailDrops
				c.queueMax = max(c.queueMax, qs.MaxLen)
			}
		}
	}
}

func (c *layerCounts) conn(s tcp.Stats) {
	c.segs += s.SentSegs
	c.acks += s.AcksSent
	c.retrans += s.RetransSegs
	c.rtos += s.Timeouts
}

// trimCounter builds congestion-control policies for a probe cell and
// keeps the TCP-TRIM instances so their getters can be read afterwards.
type trimCounter struct {
	trim  bool
	cfg   tcptrim.TrimConfig
	trims []*tcptrim.Trim
}

func (t *trimCounter) newCC() tcptrim.CongestionControl {
	if !t.trim {
		return tcptrim.NewReno()
	}
	p := tcptrim.NewTrim(t.cfg)
	t.trims = append(t.trims, p)
	return p
}

func (t *trimCounter) add(c *layerCounts) {
	for _, p := range t.trims {
		c.probeRounds += p.ProbeRounds()
		c.queueCuts += p.QueueReductions()
	}
}

func protoName(trim bool) string {
	if trim {
		return "TCP-TRIM"
	}
	return "TCP"
}

// probeIncast runs the Fig. 5/7 worst cell — 2 long flows and 10
// warmed-up short trains on the 100-packet star — under TCP and TCP-TRIM.
func probeIncast(b *bench, tr *tracer) (layerCounts, error) {
	var c layerCounts
	for _, trim := range []bool{false, true} {
		if err := probeStarCell(b, tr, trim, &c); err != nil {
			return c, err
		}
	}
	return c, nil
}

func probeStarCell(b *bench, tr *tracer, trim bool, c *layerCounts) error {
	const lpts, spts = 2, 10
	name := fmt.Sprintf("incast %s %dx%d", protoName(trim), lpts, spts)
	c.cells = append(c.cells, name)
	root, end := tr.begin(0, "probe "+name)
	defer end()

	_, endTopo := tr.begin(root, "topology.NewStar")
	sched := tcptrim.NewScheduler()
	star := tcptrim.NewStar(sched, lpts+spts, tcptrim.DefaultStarLink(100))
	endTopo()

	_, endBuild := tr.begin(root, "httpapp.NewFleet")
	policies := &trimCounter{trim: trim}
	fleet, err := tcptrim.NewFleet(star.Net, tcptrim.FleetConfig{
		Senders:  star.Senders,
		FrontEnd: star.FrontEnd,
		NewCC:    policies.newCC,
		Base:     tcptrim.ConnConfig{MinRTO: 200 * time.Millisecond, LinkRate: tcptrim.Gbps},
	})
	if err != nil {
		endBuild()
		return err
	}
	for i := 0; i < lpts; i++ {
		if err := fleet.Servers[i].StartBackgroundFlow(sim.At(100*time.Millisecond), 1<<30); err != nil {
			endBuild()
			return err
		}
	}
	rng := sim.NewRand(b.cfg.seed)
	spt := &httpapp.Collector{}
	for i := lpts; i < lpts+spts; i++ {
		warm := workload.ScheduleCount(rng, sim.At(100*time.Millisecond), 200,
			workload.UniformSize{Min: 2 << 10, Max: 10 << 10}, workload.ExponentialGap{Mean: time.Millisecond})
		if err := fleet.Servers[i].ScheduleTrains(warm); err != nil {
			endBuild()
			return err
		}
		srv := httpapp.NewServer(fleet.Conns[i].Scheduler(), fleet.Conns[i], "spt", spt)
		if err := srv.ScheduleResponse(sim.At(300*time.Millisecond), 10*tcp.DefaultMSS); err != nil {
			endBuild()
			return err
		}
	}
	endBuild()

	if err := stopWhenDone(sched, sim.At(300*time.Millisecond), spt); err != nil {
		return err
	}
	_, endRun := tr.begin(root, "Scheduler.RunUntil")
	t0 := time.Now()
	sched.RunUntil(sim.At(2 * time.Second))
	c.runNs += int64(time.Since(t0))
	endRun()

	_, endCollect := tr.begin(root, "collect")
	defer endCollect()
	c.network(sched, star.Net)
	for _, conn := range fleet.Conns {
		c.conn(conn.Stats())
	}
	policies.add(c)
	c.responses += len(spt.Responses())
	c.pending += spt.Pending()
	return nil
}

// stopWhenDone stops sched once coll has no pending response, polling
// every 10 ms from first — the runners' stop rule.
func stopWhenDone(sched *sim.Scheduler, first sim.Time, coll *httpapp.Collector) error {
	var watch func()
	watch = func() {
		if coll.Pending() == 0 {
			sched.Stop()
			return
		}
		sched.After(10*time.Millisecond, watch)
	}
	_, err := sched.At(first, watch)
	return err
}

// probeTree runs the 15-ToR TCP-TRIM cell of Fig. 8(b) at packet
// fidelity.
func probeTree(b *bench, tr *tracer) (layerCounts, error) {
	var c layerCounts
	const tors = 15
	name := fmt.Sprintf("tree TCP-TRIM %d ToRs", tors)
	c.cells = append(c.cells, name)
	root, end := tr.begin(0, "probe "+name)
	defer end()

	_, endTopo := tr.begin(root, "topology.NewTwoLevelTree")
	sched := tcptrim.NewScheduler()
	tree := topology.NewTwoLevelTree(sched, topology.TwoLevelTreeConfig{ToRs: tors})
	endTopo()

	const start, window = 100 * time.Millisecond, 500 * time.Millisecond
	t0 := time.Now()
	_, endBuild := tr.begin(root, "hybrid.NewFleet")
	policies := &trimCounter{trim: true, cfg: tcptrim.TrimConfig{BaseRTT: 95 * time.Microsecond}}
	fleet, err := hybrid.NewFleet(tree.Net, hybrid.FleetConfig{
		Senders:  tree.AllServers(),
		FrontEnd: tree.FrontEnd,
		NewCC:    policies.newCC,
		Base:     tcp.Config{MinRTO: 20 * time.Millisecond, LinkRate: netsim.Gbps},
		Fidelity: hybrid.FidelityPacket,
	})
	if err != nil {
		endBuild()
		return c, err
	}
	rng := sim.NewRand(b.cfg.seed)
	spt := &httpapp.Collector{}
	perToR := len(tree.Servers[0])
	for i := 0; i < tors*perToR; i++ {
		if s := i % perToR; s < 2 {
			err = fleet.StartBackgroundFlow(i, sim.At(start), 1<<30)
		} else {
			size := min(workload.PTSizes{}.Sample(rng), workload.PTLargeBytes)
			err = fleet.ScheduleResponseAs(i, sim.At(start+time.Duration(rng.Int63n(int64(window)))), size, "spt", spt)
		}
		if err != nil {
			endBuild()
			return c, err
		}
	}
	endBuild()
	if err := stopWhenDone(sched, sim.At(start+window), spt); err != nil {
		return c, err
	}
	_, endArm := tr.begin(root, "hybrid.Fleet.Arm")
	err = fleet.Arm()
	endArm()
	if err != nil {
		return c, err
	}
	c.buildNs += int64(time.Since(t0))
	return c, runFleetCell(tr, root, sched, tree.Net, fleet, spt, policies, 3*time.Second, &c)
}

// probeFleet runs the fleet workload's configuration — 5 ToRs × 20
// servers × 300 connections on the hybrid layer — under TCP and TCP-TRIM.
func probeFleet(b *bench, tr *tracer) (layerCounts, error) {
	var c layerCounts
	for _, trim := range []bool{false, true} {
		if err := probeFleetCell(b, tr, trim, &c); err != nil {
			return c, err
		}
	}
	return c, nil
}

func probeFleetCell(b *bench, tr *tracer, trim bool, c *layerCounts) error {
	cfg := fleetConfig()
	name := fmt.Sprintf("fleet %s %dx%dx%d", protoName(trim), cfg.ToRs, cfg.ServersPerToR, cfg.ConnsPerServer)
	c.cells = append(c.cells, name)
	root, end := tr.begin(0, "probe "+name)
	defer end()

	_, endTopo := tr.begin(root, "topology.NewTwoLevelTree")
	sched := tcptrim.NewScheduler()
	tree := topology.NewTwoLevelTree(sched, topology.TwoLevelTreeConfig{ToRs: cfg.ToRs, ServersPerToR: cfg.ServersPerToR})
	endTopo()

	const start = 100 * time.Millisecond
	t0 := time.Now()
	_, endBuild := tr.begin(root, "hybrid.NewFleet")
	policies := &trimCounter{trim: trim, cfg: tcptrim.TrimConfig{BaseRTT: 95 * time.Microsecond}}
	fleet, err := hybrid.NewFleet(tree.Net, hybrid.FleetConfig{
		Senders:        tree.AllServers(),
		ConnsPerSender: cfg.ConnsPerServer,
		FrontEnd:       tree.FrontEnd,
		NewCC:          policies.newCC,
		Base:           tcp.Config{MinRTO: 20 * time.Millisecond, LinkRate: netsim.Gbps, ArmRTOOnLoneTail: true},
		Fidelity:       hybrid.FidelityHybrid,
	})
	if err != nil {
		endBuild()
		return err
	}
	rng := sim.NewRand(b.cfg.seed)
	coll := &httpapp.Collector{}
	for srv := 0; srv < cfg.ToRs*cfg.ServersPerToR; srv++ {
		first := srv * cfg.ConnsPerServer
		if srv%cfg.ServersPerToR < cfg.LPTsPerToR {
			// One background train per long-flow server; its other
			// connections stay idle in the flow store.
			err = fleet.StartBackgroundFlow(first, sim.At(start), 1<<30)
		} else {
			for k := 0; k < cfg.ConnsPerServer && err == nil; k++ {
				at := sim.At(start + time.Duration(rng.Int63n(int64(cfg.Window))))
				err = fleet.ScheduleResponseAs(first+k, at, (1+int(rng.Int63n(4)))*tcp.DefaultMSS, "pt", coll)
			}
		}
		if err != nil {
			endBuild()
			return err
		}
	}
	endBuild()
	if err := stopWhenDone(sched, sim.At(start+cfg.Window), coll); err != nil {
		return err
	}
	_, endArm := tr.begin(root, "hybrid.Fleet.Arm")
	err = fleet.Arm()
	endArm()
	if err != nil {
		return err
	}
	c.buildNs += int64(time.Since(t0))
	return runFleetCell(tr, root, sched, tree.Net, fleet, coll, policies, start+cfg.Window+cfg.Drain, c)
}

// runFleetCell runs an armed hybrid-fleet cell to horizon (or its stop
// rule) and collects its counters.
func runFleetCell(tr *tracer, root int, sched *sim.Scheduler, net *netsim.Network, fleet *hybrid.Fleet,
	coll *httpapp.Collector, policies *trimCounter, horizon time.Duration, c *layerCounts) error {
	_, endRun := tr.begin(root, "Scheduler.RunUntil")
	t0 := time.Now()
	sched.RunUntil(sim.At(horizon))
	c.runNs += int64(time.Since(t0))
	endRun()
	if err := fleet.Err(); err != nil {
		return err
	}
	_, endCollect := tr.begin(root, "collect")
	defer endCollect()
	c.network(sched, net)
	for i := 0; i < fleet.NumFlows(); i++ {
		c.conn(fleet.Stats(i))
	}
	policies.add(c)
	c.flows += fleet.NumFlows()
	c.peakLive += fleet.PeakLive()
	c.arenaCap += fleet.ArenaCap()
	c.responses += len(coll.Responses())
	c.pending += coll.Pending()
	return nil
}

func (c layerCounts) String() string { return strings.Join(c.cells, "; ") }
