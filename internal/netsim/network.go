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
	// routes[dst] = dst's next-hop table (layout in buildRoutes), nil
	// until a packet first heads for dst. The tables hold no pointers,
	// so the garbage collector never scans them.
	routes [][]int32
	// dist and bfs are buildRoutes' scratch, reused across destinations.
	dist   []int32
	bfs    []NodeID
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
	if pkt.Hops > maxHops || int(pkt.Dst) >= len(n.routes) {
		n.stats.RoutingDrops++
		n.ReleasePacket(pkt)
		return
	}
	table := n.routeTable(pkt.Dst)
	u := node.ID()
	lo, hi := table[u], table[u+1]
	if lo == hi {
		n.stats.RoutingDrops++
		n.ReleasePacket(pkt)
		return
	}
	if hi-lo > 1 {
		lo += int32(ecmpHash(pkt.Flow, u) % uint64(hi-lo))
	}
	n.out[u][table[lo]].Send(pkt)
}

// routeTable returns dst's next-hop table, building it on first use.
func (n *Network) routeTable(dst NodeID) []int32 {
	if n.routes[dst] == nil {
		n.routes[dst] = n.buildRoutes(dst)
	}
	return n.routes[dst]
}

// buildRoutes runs a BFS from dst over reversed links and returns dst's
// next-hop table: for every node, the outgoing pipes that decrease the
// distance to dst. The table is one pointer-free allocation. Its first
// len(n.nodes)+1 entries are offsets into the table itself; entries
// table[u]..table[u+1] are indices into n.out[u], in n.out[u] order, so
// ECMP picks by position exactly as over the pipes themselves. dst and
// unreachable nodes get an empty range.
func (n *Network) buildRoutes(dst NodeID) []int32 {
	const unreachable = -1
	nodes := len(n.nodes)
	if cap(n.dist) < nodes {
		n.dist = make([]int32, nodes)
		n.bfs = make([]NodeID, 0, nodes)
	}
	dist := n.dist[:nodes]
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	// Reverse adjacency: node u reaches v when u has a pipe to v; for the
	// BFS from dst we need "who has a pipe INTO the queue". All cables
	// are full duplex, so out-adjacency doubles as in-adjacency.
	queue := append(n.bfs[:0], dst)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, pipe := range n.out[v] {
			u := pipe.to.ID()
			if dist[u] == unreachable {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	n.bfs = queue
	// Count the next hops first so the table is exactly one allocation.
	size := nodes + 1
	for u, d := range dist {
		if d > 0 {
			for _, pipe := range n.out[u] {
				if dist[pipe.to.ID()] == d-1 {
					size++
				}
			}
		}
	}
	table := make([]int32, size)
	next := int32(nodes + 1)
	for u, d := range dist {
		table[u] = next
		if d > 0 {
			for i, pipe := range n.out[u] {
				if dist[pipe.to.ID()] == d-1 {
					table[next] = int32(i)
					next++
				}
			}
		}
	}
	table[nodes] = next
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
