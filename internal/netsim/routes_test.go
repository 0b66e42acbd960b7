package netsim_test

// Differential tests of the next-hop tables against the reference
// [][]*Pipe builder (OracleRoutes), allocation pins for table builds and
// forwarding, and the forwarding microbenchmarks.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/topology"
)

var testLink = netsim.LinkConfig{
	Rate:  netsim.Gbps,
	Delay: time.Microsecond,
	Queue: netsim.QueueConfig{CapPackets: 100},
}

// requireOracleRoutes checks that, for every (node, dst), the table
// yields the oracle's next-hop pipes in the oracle's order.
func requireOracleRoutes(t *testing.T, net *netsim.Network) {
	t.Helper()
	n := net.Nodes()
	for dst := 0; dst < n; dst++ {
		want := net.OracleRoutes(netsim.NodeID(dst))
		for node := 0; node < n; node++ {
			got := net.NextHops(netsim.NodeID(node), netsim.NodeID(dst))
			if !samePipes(got, want[node]) {
				t.Fatalf("next hops %d→%d: got %s, want %s",
					node, dst, pipeList(got), pipeList(want[node]))
			}
		}
	}
}

func samePipes(a, b []*netsim.Pipe) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pipeList(ps []*netsim.Pipe) string {
	s := "["
	for i, p := range ps {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s→%s", p.From().Name(), p.To().Name())
	}
	return s + "]"
}

func TestRoutesMatchOracleTwoLevelTree(t *testing.T) {
	for _, tors := range []int{5, 15} {
		t.Run(fmt.Sprintf("tors=%d", tors), func(t *testing.T) {
			tree := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: tors})
			requireOracleRoutes(t, tree.Net)
		})
	}
}

func TestRoutesMatchOracleFatTree(t *testing.T) {
	ft, err := topology.NewFatTree(sim.NewScheduler(), 4, testLink)
	if err != nil {
		t.Fatal(err)
	}
	requireOracleRoutes(t, ft.Net)
}

// randomMesh wires n switches into a ring (so everything is reachable),
// adds random chords, and doubles some cables, which gives both distinct
// equal-cost paths and parallel pipes to the same neighbour.
func randomMesh(seed int64, n int) *netsim.Network {
	rng := rand.New(rand.NewSource(seed))
	net := netsim.NewNetwork(sim.NewScheduler())
	nodes := make([]netsim.Node, n)
	for i := range nodes {
		if i%3 == 0 {
			nodes[i] = net.AddHost("")
		} else {
			nodes[i] = net.AddSwitch("")
		}
	}
	for i := range nodes {
		net.Connect(nodes[i], nodes[(i+1)%n], testLink)
	}
	for k := 0; k < n; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		net.Connect(nodes[a], nodes[b], testLink)
		if rng.Intn(4) == 0 {
			net.Connect(nodes[a], nodes[b], testLink)
		}
	}
	return net
}

func TestRoutesMatchOracleRandomMesh(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		net := randomMesh(seed, 40)
		ecmp := 0
		for dst := 0; dst < net.Nodes(); dst++ {
			for _, hops := range net.OracleRoutes(netsim.NodeID(dst)) {
				if len(hops) > 1 {
					ecmp++
				}
			}
		}
		if ecmp == 0 {
			t.Fatalf("seed %d: mesh has no equal-cost choices", seed)
		}
		requireOracleRoutes(t, net)
	}
}

func TestRoutesMatchOracleUnreachable(t *testing.T) {
	net := netsim.NewNetwork(sim.NewScheduler())
	// Two islands plus an isolated host.
	a, b, sw1 := net.AddHost("a"), net.AddHost("b"), net.AddSwitch("sw1")
	c, d, sw2 := net.AddHost("c"), net.AddHost("d"), net.AddSwitch("sw2")
	lone := net.AddHost("lone")
	net.Connect(a, sw1, testLink)
	net.Connect(b, sw1, testLink)
	net.Connect(c, sw2, testLink)
	net.Connect(d, sw2, testLink)
	requireOracleRoutes(t, net)
	if hops := net.NextHops(a.ID(), c.ID()); len(hops) != 0 {
		t.Errorf("a→c across islands: got %s, want no route", pipeList(hops))
	}
	if hops := net.NextHops(lone.ID(), a.ID()); len(hops) != 0 {
		t.Errorf("lone→a: got %s, want no route", pipeList(hops))
	}
}

func TestRoutesMatchOracleAfterConnect(t *testing.T) {
	net := randomMesh(7, 30)
	requireOracleRoutes(t, net) // every table is now cached
	// New cables shorten paths and add equal-cost choices; stale tables
	// would disagree with the oracle.
	lone := net.AddSwitch("late")
	net.Connect(net.Node(0), lone, testLink)
	net.Connect(lone, net.Node(15), testLink)
	net.Connect(net.Node(3), net.Node(20), testLink)
	requireOracleRoutes(t, net)
}

// TestForwardFollowsOracleECMP checks that forwarding picks, at every
// hop, the oracle's hops[ecmpHash % len]: each packet must cross exactly
// the pipes that choice predicts.
func TestForwardFollowsOracleECMP(t *testing.T) {
	sched := sim.NewScheduler()
	ft, err := topology.NewFatTree(sched, 4, testLink)
	if err != nil {
		t.Fatal(err)
	}
	net := ft.Net
	for _, h := range ft.Hosts {
		h.SetHandler(func(*netsim.Packet) {})
	}
	flow := netsim.FlowID(0)
	for _, src := range ft.Hosts {
		for _, dst := range ft.Hosts {
			if src == dst {
				continue
			}
			flow++
			routes := net.OracleRoutes(dst.ID())
			var path []*netsim.Pipe
			for u := src.ID(); u != dst.ID(); {
				hops := routes[u]
				p := hops[netsim.EcmpHash(flow, u)%uint64(len(hops))]
				path = append(path, p)
				u = p.To().ID()
			}
			before := make([]int, len(path))
			for i, p := range path {
				before[i] = p.Stats().SentPackets
			}
			src.Send(&netsim.Packet{Flow: flow, Src: src.ID(), Dst: dst.ID(), Size: 1500})
			sched.Run()
			for i, p := range path {
				if got := p.Stats().SentPackets - before[i]; got != 1 {
					t.Fatalf("flow %d %s→%s: pipe %s carried %d packets, want 1",
						flow, src.Name(), dst.Name(), pipeList(path[i:i+1]), got)
				}
			}
		}
	}
}

// TestBuildRoutesOneAllocation pins a table build, once the BFS scratch
// exists, to the table itself.
func TestBuildRoutesOneAllocation(t *testing.T) {
	tree := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 15})
	for _, dst := range []netsim.Node{tree.FrontEnd, tree.Servers[7][3], tree.Fabric} {
		got := testing.AllocsPerRun(20, func() { tree.Net.RebuildRoutes(dst.ID()) })
		if got != 1 {
			t.Errorf("building %s's table: %v allocations, want 1", dst.Name(), got)
		}
	}
}

// TestForwardAcrossSwitchAllocationFree pins steady-state forwarding
// (route lookup, Pipe.Send, delivery) to zero allocations.
func TestForwardAcrossSwitchAllocationFree(t *testing.T) {
	sched := sim.NewScheduler()
	star := topology.NewStar(sched, 4, testLink)
	net := star.Net
	star.FrontEnd.SetHandler(func(*netsim.Packet) {})
	send := func() {
		src := star.Senders[2]
		p := net.AllocPacket()
		p.Flow, p.Src, p.Dst, p.Size = 9, src.ID(), star.FrontEnd.ID(), 1500
		src.Send(p)
		sched.Run()
	}
	// Build the table, warm the packet pool and grow every pipe's
	// in-flight FIFO to its compaction size.
	for i := 0; i < 64; i++ {
		send()
	}
	if got := testing.AllocsPerRun(100, send); got != 0 {
		t.Errorf("forwarding across a switch: %v allocations per packet, want 0", got)
	}
}

// BenchmarkForward measures forwarding on the 15-ToR Fig. 8(a) tree: each
// op sends one packet from a server to the front-end and one back (the
// data and ACK directions), three route lookups and Pipe.Sends each, and
// runs the scheduler until both are delivered. Tables are built, and
// every pipe's in-flight FIFO has reached its compaction size, before the
// timer starts.
func BenchmarkForward(b *testing.B) {
	sched := sim.NewScheduler()
	tree := topology.NewTwoLevelTree(sched, topology.TwoLevelTreeConfig{ToRs: 15})
	net, fe := tree.Net, tree.FrontEnd
	servers := tree.AllServers()
	fe.SetHandler(func(*netsim.Packet) {})
	for _, s := range servers {
		s.SetHandler(func(*netsim.Packet) {})
	}
	send := func(i int) {
		s := servers[i%len(servers)]
		for _, dir := range [2][2]*netsim.Host{{s, fe}, {fe, s}} {
			p := net.AllocPacket()
			p.Flow, p.Src, p.Dst, p.Size = netsim.FlowID(i), dir[0].ID(), dir[1].ID(), 1500
			dir[0].Send(p)
		}
		sched.Run()
	}
	for i := 0; i < 64*len(servers); i++ {
		send(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(6*b.N), "ns/hop")
}

// BenchmarkBuildRoutes measures one table build on the 15-ToR tree for
// the two destination kinds Fig. 8(b) traffic reaches.
func BenchmarkBuildRoutes(b *testing.B) {
	tree := topology.NewTwoLevelTree(sim.NewScheduler(), topology.TwoLevelTreeConfig{ToRs: 15})
	for _, dst := range []*netsim.Host{tree.FrontEnd, tree.Servers[7][3]} {
		b.Run(dst.Name(), func(b *testing.B) {
			tree.Net.RebuildRoutes(dst.ID())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.Net.RebuildRoutes(dst.ID())
			}
		})
	}
}
