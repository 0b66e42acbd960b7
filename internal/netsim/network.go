package netsim

import (
	"fmt"
	"time"

	"tcptrim/internal/sim"
)

// LinkConfig describes one full-duplex cable. The same queue configuration
// is applied to both directions.
type LinkConfig struct {
	Rate  Bitrate
	Delay time.Duration
	Queue QueueConfig
}

// NetworkStats aggregates network-wide drop/forwarding counters that are
// not attributable to a single queue.
type NetworkStats struct {
	// RoutingDrops counts packets dropped for lack of a route or because
	// the hop limit was exceeded.
	RoutingDrops int
}

// Network is a topology of hosts and switches plus its routing state.
// Build the topology first (AddHost/AddSwitch/Connect), then run traffic;
// routes are computed lazily per destination and invalidated on Connect.
type Network struct {
	sched *sim.Scheduler
	nodes []Node
	// out[node] = that node's outgoing pipes. NodeIDs are dense (register
	// hands them out sequentially), so both adjacency and routes live in
	// flat slices: the per-packet forward path indexes instead of hashing.
	out [][]*Pipe
	// routes[dst][node] = equal-cost next-hop pipes from node toward dst;
	// routes[dst] == nil means that destination's tree is not built yet.
	routes [][][]*Pipe
	nextID NodeID

	pool  pktPool // packet free list (see pool.go)
	stats NetworkStats
}

// NewNetwork returns an empty network driven by sched.
func NewNetwork(sched *sim.Scheduler) *Network {
	return &Network{sched: sched}
}

// Scheduler returns the event scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Stats returns the network-wide counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.nodes) }

// Node returns the node with the given id, or nil.
func (n *Network) Node(id NodeID) Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return nil
	}
	return n.nodes[id]
}

// AddHost creates a host. An empty name gets an auto-generated one.
func (n *Network) AddHost(name string) *Host {
	h := &Host{net: n, id: n.nextID, name: name}
	if name == "" {
		h.name = fmt.Sprintf("host%d", h.id)
	}
	n.register(h)
	return h
}

// AddSwitch creates a switch. An empty name gets an auto-generated one.
func (n *Network) AddSwitch(name string) *Switch {
	s := &Switch{net: n, id: n.nextID, name: name}
	if name == "" {
		s.name = fmt.Sprintf("switch%d", s.id)
	}
	n.register(s)
	return s
}

func (n *Network) register(node Node) {
	n.nodes = append(n.nodes, node)
	n.out = append(n.out, nil)
	n.routes = append(n.routes, nil)
	n.nextID++
}

// Connect wires a full-duplex cable between a and b and returns the two
// directed pipes (a→b, b→a). Adding links invalidates cached routes.
func (n *Network) Connect(a, b Node, cfg LinkConfig) (*Pipe, *Pipe) {
	ab := &Pipe{
		sched: n.sched, net: n, from: a, to: b,
		rate: cfg.Rate, delay: cfg.Delay,
		queue: NewQueue(cfg.Queue),
	}
	ba := &Pipe{
		sched: n.sched, net: n, from: b, to: a,
		rate: cfg.Rate, delay: cfg.Delay,
		queue: NewQueue(cfg.Queue),
	}
	// Queues stamp enqueue times with the simulation clock (sojourn-time
	// AQMs need it) and return head-dropped packets to the pool.
	for _, q := range [...]*Queue{ab.queue, ba.queue} {
		q.SetClock(n.sched.Now)
		q.SetDropHandler(n.ReleasePacket)
	}
	n.out[a.ID()] = append(n.out[a.ID()], ab)
	n.out[b.ID()] = append(n.out[b.ID()], ba)
	clear(n.routes)
	return ab, ba
}

// PipesFrom returns the outgoing pipes of a node (shared slice; callers
// must not mutate it).
func (n *Network) PipesFrom(id NodeID) []*Pipe { return n.out[id] }

// forward routes pkt out of node toward pkt.Dst, applying per-flow ECMP
// when several shortest-path next hops exist.
func (n *Network) forward(node Node, pkt *Packet) {
	pkt.Hops++
	if pkt.Hops > maxHops {
		n.stats.RoutingDrops++
		n.ReleasePacket(pkt)
		return
	}
	hops := n.nextHops(node.ID(), pkt.Dst)
	if len(hops) == 0 {
		n.stats.RoutingDrops++
		n.ReleasePacket(pkt)
		return
	}
	pipe := hops[0]
	if len(hops) > 1 {
		pipe = hops[ecmpHash(pkt.Flow, node.ID())%uint64(len(hops))]
	}
	pipe.Send(pkt)
}

// nextHops returns the equal-cost next-hop pipes from node toward dst,
// computing and caching the destination's routing tree on first use.
func (n *Network) nextHops(node, dst NodeID) []*Pipe {
	if int(dst) >= len(n.routes) {
		return nil
	}
	table := n.routes[dst]
	if table == nil {
		table = n.buildRoutes(dst)
		n.routes[dst] = table
	}
	return table[node]
}

// buildRoutes runs a BFS from dst over reversed links, then records, for
// every node, all outgoing pipes that decrease the distance to dst.
func (n *Network) buildRoutes(dst NodeID) [][]*Pipe {
	const unreachable = int(^uint(0) >> 1)
	dist := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	frontier := []NodeID{dst}
	// Reverse adjacency: node u reaches v when u has a pipe to v; for the
	// BFS from dst we need "who has a pipe INTO the frontier". All cables
	// are full duplex, so out-adjacency doubles as in-adjacency.
	for len(frontier) > 0 {
		var next []NodeID
		for _, v := range frontier {
			for _, pipe := range n.out[v] {
				u := pipe.to.ID()
				if dist[u] == unreachable {
					dist[u] = dist[v] + 1
					next = append(next, u)
				}
			}
		}
		frontier = next
	}
	table := make([][]*Pipe, len(n.nodes))
	for id := range n.nodes {
		u := NodeID(id)
		if u == dst || dist[u] == unreachable {
			continue
		}
		for _, pipe := range n.out[u] {
			if dist[pipe.to.ID()] == dist[u]-1 {
				table[u] = append(table[u], pipe)
			}
		}
	}
	return table
}

// ecmpHash mixes the flow id with the deciding node so that different
// switches spread the same flow set differently (avoids hash
// polarization). FNV-1a.
func ecmpHash(flow FlowID, node NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range [...]uint64{uint64(flow), uint64(node)} {
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	return h
}
