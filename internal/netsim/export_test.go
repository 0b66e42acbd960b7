package netsim

// Test-only hooks for the external netsim_test package. Its tests build
// the reproduced topologies through internal/topology, which imports
// netsim and so cannot be imported by netsim's own tests.

// NextHops returns the next-hop pipes from node toward dst as forward
// reads them from dst's table, building the table on first use.
func (n *Network) NextHops(node, dst NodeID) []*Pipe {
	table := n.routeTable(dst)
	var hops []*Pipe
	for _, i := range table[table[node]:table[node+1]] {
		hops = append(hops, n.out[node][i])
	}
	return hops
}

// RebuildRoutes builds dst's table afresh, cached or not.
func (n *Network) RebuildRoutes(dst NodeID) { n.routes[dst] = n.buildRoutes(dst) }

// EcmpHash exposes the ECMP hash so tests can predict a flow's path.
func EcmpHash(flow FlowID, node NodeID) uint64 { return ecmpHash(flow, node) }

// OracleRoutes is the reference route builder: a BFS from dst over
// reversed links, then, for every node, every outgoing pipe that
// decreases the distance to dst, as one []*Pipe per node. It is the
// pointer-per-entry layout the int32 tables replaced, kept as the oracle
// the differential tests hold buildRoutes to.
func (n *Network) OracleRoutes(dst NodeID) [][]*Pipe {
	const unreachable = int(^uint(0) >> 1)
	dist := make([]int, len(n.nodes))
	for i := range dist {
		dist[i] = unreachable
	}
	dist[dst] = 0
	frontier := []NodeID{dst}
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
