package netsim

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"arest/internal/mpls"
)

// Network is a simulated internetwork: routers (possibly spanning several
// ASes), point-to-point links, attached hosts, and the computed control
// planes (IGP shortest paths, LDP bindings, SR SIDs).
type Network struct {
	routers []*Router
	adj     map[RouterID][]neighbor
	hosts   map[netip.Addr]*Host

	// prefixes maps advertised prefixes to their owner router.
	prefixes map[netip.Prefix]RouterID

	// asIndex assigns a small stable index per ASN for address allocation.
	asIndex map[int]int
	// nextIface tracks per-AS interface address allocation.
	nextIface map[int]uint32
	nextLoop  map[int]uint32

	// MappingServer enables SR↔LDP interworking: an SRMS advertises prefix
	// SIDs on behalf of LDP-only routers, giving them node-SID indexes.
	MappingServer bool
	// SRPHPEnabled makes the penultimate hop pop SR node-SID labels
	// (penultimate hop popping). Off by default: the paper's examples show
	// the node-SID label present at the last hop of a segment.
	SRPHPEnabled bool
	// SRPolicy, when set, lets an ingress LER steer traffic over an
	// explicit segment list (traffic engineering, service SIDs). A nil
	// return falls back to a single node segment to the egress.
	SRPolicy func(ingress *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList
	// LDPStackPolicy, when set, lets a classic-MPLS ingress push a second
	// (service/VPN-style) label under the LDP transport label — the classic
	// source of depth-2 stacks outside Segment Routing. The returned label
	// must be a service SID of the egress (AllocateServiceSID).
	LDPStackPolicy func(ingress *Router, egress RouterID, dst netip.Addr) (uint32, bool)
	// EntropyPolicy, when set and returning true, makes classic-MPLS
	// ingresses append an RFC 6790 entropy label pair (ELI + EL) to the
	// stack — another Segment-Routing-free source of deep stacks.
	EntropyPolicy func(ingress *Router, egress RouterID, dst netip.Addr, flow uint64) bool

	seed int64

	// addrOwner maps exact interface/loopback addresses to their router.
	addrOwner map[netip.Addr]RouterID
	// ownerCache memoizes longest-prefix-match results per destination;
	// reset by Compute. A sync.Map so concurrent Sends can share it.
	ownerCache *sync.Map
	// pathCache memoizes PathLen walks per (src, dst, flow); reset by
	// Compute. Campaigns replay the same return paths for every probe of
	// a sweep, so the hop-by-hop walk runs once per flow.
	pathCache *sync.Map
	// downLinks holds administratively/operationally down links (both
	// orientations), for failure and fast-reroute studies.
	downLinks map[[2]RouterID]bool
	// nhOverride holds static FIB entries (fault injection): (at, owner)
	// → forced next hop; see SetNextHopOverride.
	nhOverride map[[2]RouterID]RouterID
	// met holds the bound observability counters (zero value = no-op);
	// see Instrument.
	met simMetrics
	// sidOwner maps node-SID indexes back to routers.
	sidOwner []RouterID

	computed bool
	// nexthops[src][dst] lists ECMP next hops from src toward dst router;
	// dense slices indexed by RouterID (IDs are contiguous from 0).
	nexthops [][][]RouterID
	dist     [][]int
}

// New creates an empty network. All stochastic choices (label pool draws,
// IP-ID strides) derive from seed.
func New(seed int64) *Network {
	return &Network{
		adj:       make(map[RouterID][]neighbor),
		hosts:     make(map[netip.Addr]*Host),
		prefixes:  make(map[netip.Prefix]RouterID),
		asIndex:   make(map[int]int),
		nextIface: make(map[int]uint32),
		nextLoop:  make(map[int]uint32),
		seed:      seed,
	}
}

// idHash mixes the network seed with a router ID into a well-distributed
// 64-bit value (splitmix64 finalizer). Per-router derivation — instead of a
// shared rand.Rand stream — makes router parameters independent of the
// order in which other routers were added, and leaves the Network free of
// mutable randomness state.
func idHash(seed int64, id RouterID) uint64 {
	v := uint64(seed) ^ uint64(id)*0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

func (n *Network) asIdx(asn int) int {
	if i, ok := n.asIndex[asn]; ok {
		return i
	}
	i := len(n.asIndex) + 1
	if i > 250 {
		panic("netsim: too many ASes for the addressing plan")
	}
	n.asIndex[asn] = i
	return i
}

func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddRouter creates a router, allocating its loopback from the AS block
// 10.<as-index>.0.0/16 and advertising the loopback /32.
func (n *Network) AddRouter(cfg RouterConfig) *Router {
	idx := n.asIdx(cfg.ASN)
	n.nextLoop[idx]++
	seq := n.nextLoop[idx]
	if seq > 999 {
		panic(fmt.Sprintf("netsim: more than 999 routers in AS %d", cfg.ASN))
	}
	lb := u32ToAddr(10<<24 | uint32(idx)<<16 | seq)

	srgb, srlb := cfg.SRGB, cfg.SRLB
	if srgb == (mpls.LabelRange{}) {
		if g, l, ok := mpls.SRBlocks(cfg.Vendor); ok {
			srgb = g
			if srlb == (mpls.LabelRange{}) {
				srlb = l
			}
		}
	}
	id := RouterID(len(n.routers))
	h := idHash(n.seed, id)
	r := &Router{
		ID:         id,
		Name:       cfg.Name,
		ASN:        cfg.ASN,
		Vendor:     cfg.Vendor,
		Loopback:   lb,
		Profile:    cfg.Profile,
		SREnabled:  cfg.SREnabled,
		LDPEnabled: cfg.LDPEnabled,
		SRGB:       srgb,
		SRLB:       srlb,
		Mode:       cfg.Mode,
		nodeIndex:  -1,
		svcSIDs:    make(map[uint32]bool),
		adjSIDs:    make(map[RouterID]uint32),
		adjByL:     make(map[uint32]RouterID),
		ldpIn:      make(map[uint32]RouterID),
		ldpOut:     make(map[RouterID]uint32),
		ifaces:     make(map[RouterID]netip.Addr),
		ipIDBase:   uint16(h),
		ipIDStride: uint16(1 + (h>>16)%8),
	}
	r.pool = mpls.NewPool(mpls.DynamicPool(cfg.Vendor), n.seed^int64(r.ID)*2654435761)
	if r.Name == "" {
		r.Name = fmt.Sprintf("r%d-as%d", r.ID, r.ASN)
	}
	n.routers = append(n.routers, r)
	n.prefixes[netip.PrefixFrom(lb, 32)] = r.ID
	n.computed = false
	return r
}

// Router returns the router with the given ID.
func (n *Network) Router(id RouterID) *Router { return n.routers[int(id)] }

// Routers returns all routers, ordered by ID.
func (n *Network) Routers() []*Router { return n.routers }

// Connect links routers a and b with the given IGP weight, allocating a
// point-to-point interface address on each side from a's AS block.
func (n *Network) Connect(a, b RouterID, weight int) {
	ra, rb := n.routers[a], n.routers[b]
	if _, dup := ra.ifaces[b]; dup {
		panic(fmt.Sprintf("netsim: duplicate link %d-%d", a, b))
	}
	idx := n.asIdx(ra.ASN)
	n.nextIface[idx] += 2
	base := 10<<24 | uint32(idx)<<16 | 0x1000 + n.nextIface[idx]
	if base&0xffff >= 0xff00 {
		panic(fmt.Sprintf("netsim: interface space exhausted in AS %d", ra.ASN))
	}
	aAddr, bAddr := u32ToAddr(base), u32ToAddr(base+1)
	ra.ifaces[b] = aAddr
	rb.ifaces[a] = bAddr
	n.adj[a] = append(n.adj[a], neighbor{id: b, weight: weight})
	n.adj[b] = append(n.adj[b], neighbor{id: a, weight: weight})
	n.prefixes[netip.PrefixFrom(aAddr, 32)] = a
	n.prefixes[netip.PrefixFrom(bAddr, 32)] = b
	n.computed = false
}

// SetLinkState brings the a-b link down (up=false) or back up. The change
// takes effect at the next Compute, modeling IGP reconvergence; forwarding
// over an adjacency SID bound to a down link drops the packet immediately,
// as a real LSR would until protection kicks in.
func (n *Network) SetLinkState(a, b RouterID, up bool) {
	if n.downLinks == nil {
		n.downLinks = make(map[[2]RouterID]bool)
	}
	if up {
		delete(n.downLinks, [2]RouterID{a, b})
		delete(n.downLinks, [2]RouterID{b, a})
	} else {
		n.downLinks[[2]RouterID{a, b}] = true
		n.downLinks[[2]RouterID{b, a}] = true
	}
	n.computed = false
}

// linkDown reports whether the a-b link is down.
func (n *Network) linkDown(a, b RouterID) bool {
	return n.downLinks[[2]RouterID{a, b}]
}

// Neighbors returns the IDs of routers adjacent to id.
func (n *Network) Neighbors(id RouterID) []RouterID {
	out := make([]RouterID, len(n.adj[id]))
	for i, nb := range n.adj[id] {
		out[i] = nb.id
	}
	return out
}

// AdvertisePrefix attaches a routed prefix to a router (e.g. a customer
// prefix behind an edge router). Probes to any address inside it are
// delivered at that router.
func (n *Network) AdvertisePrefix(id RouterID, p netip.Prefix) {
	n.prefixes[p] = id
}

// AddHost attaches an end host (vantage point or target) to a gateway
// router and routes its /32 there.
func (n *Network) AddHost(a netip.Addr, gw RouterID) *Host {
	h := &Host{Addr: a, Gateway: gw}
	n.hosts[a] = h
	n.prefixes[netip.PrefixFrom(a, 32)] = gw
	return h
}

type ownerEntry struct {
	id RouterID
	ok bool
}

// Owner resolves the router owning the longest matching prefix for a,
// with ok=false when no prefix covers it. Results are memoized per
// destination until the next Compute: campaigns probe the same targets
// from many vantage points, so the linear prefix scan runs once per
// destination instead of once per probe.
func (n *Network) Owner(a netip.Addr) (RouterID, bool) {
	cache := n.ownerCache
	if cache != nil {
		if e, hit := cache.Load(a); hit {
			ent := e.(ownerEntry)
			return ent.id, ent.ok
		}
	}
	best := -1
	var owner RouterID
	for p, id := range n.prefixes {
		if p.Contains(a) && p.Bits() > best {
			best = p.Bits()
			owner = id
		}
	}
	if cache != nil {
		cache.Store(a, ownerEntry{owner, best >= 0})
	}
	return owner, best >= 0
}

// RouterByAddr returns the router owning a as one of its own interface or
// loopback addresses (not merely a routed prefix).
func (n *Network) RouterByAddr(a netip.Addr) (*Router, bool) {
	id, ok := n.addrOwner[a]
	if !ok {
		return nil, false
	}
	return n.routers[id], true
}

// Compute runs the control planes: IGP SPF, SR SID allocation, and LDP
// label distribution. It must be called after topology changes and before
// injecting traffic.
func (n *Network) Compute() {
	n.buildAddrIndex()
	n.computeSPF()
	n.assignSIDs()
	n.distributeLDP()
	n.computed = true
}

func (n *Network) buildAddrIndex() {
	n.ownerCache = new(sync.Map)
	n.pathCache = new(sync.Map)
	n.addrOwner = make(map[netip.Addr]RouterID)
	for _, r := range n.routers {
		n.addrOwner[r.Loopback] = r.ID
		for _, a := range r.ifaces {
			n.addrOwner[a] = r.ID
		}
	}
}

// assignSIDs gives every SR-enabled router a node-SID index and allocates
// adjacency SIDs for its IGP links. With a mapping server, LDP-only routers
// also receive a (SRMS-advertised) node-SID index.
func (n *Network) assignSIDs() {
	idx := 0
	n.sidOwner = n.sidOwner[:0]
	for _, r := range n.routers {
		if r.SREnabled || (n.MappingServer && r.LDPEnabled) {
			r.nodeIndex = idx
			n.sidOwner = append(n.sidOwner, r.ID)
			idx++
		} else {
			r.nodeIndex = -1
		}
	}
	for _, r := range n.routers {
		if !r.SREnabled {
			continue
		}
		// Deterministic neighbor order for reproducible adjacency SIDs.
		nbs := append([]neighbor(nil), n.adj[r.ID]...)
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].id < nbs[j].id })
		seq := uint32(0)
		for _, nb := range nbs {
			var label uint32
			if r.SRLB.Size() > 0 {
				label = r.SRLB.Lo + seq
				if label > r.SRLB.Hi {
					panic(fmt.Sprintf("netsim: SRLB of %s exhausted", r.Name))
				}
			} else {
				// Juniper-style: adjacency SIDs from the dynamic pool.
				label = r.pool.Allocate(fmt.Sprintf("adj-%d", nb.id))
			}
			r.adjSIDs[nb.id] = label
			r.adjByL[label] = nb.id
			seq++
		}
	}
}

// distributeLDP makes every LDP-enabled router allocate a label from its
// dynamic pool for every reachable egress router FEC, mirroring per-prefix
// downstream-unsolicited LDP. SR border routers also generate LDP bindings
// that mirror the node SIDs they learned (LDP→SR interworking).
func (n *Network) distributeLDP() {
	for _, r := range n.routers {
		if !r.LDPEnabled && !r.SREnabled {
			continue
		}
		if !r.LDPEnabled {
			// Pure-SR router: generates LDP bindings only when adjacent to
			// an LDP-only neighbor (interworking), and only then.
			ldpNeighbor := false
			for _, nb := range n.adj[r.ID] {
				o := n.routers[nb.id]
				if o.LDPEnabled && !o.SREnabled {
					ldpNeighbor = true
					break
				}
			}
			if !ldpNeighbor {
				continue
			}
		}
		for _, e := range n.routers {
			if e.ID == r.ID || e.ASN != r.ASN {
				continue
			}
			if n.dist[r.ID][e.ID] < 0 {
				continue
			}
			l := r.pool.Allocate("fec-" + e.Loopback.String())
			r.ldpIn[l] = e.ID
			r.ldpOut[e.ID] = l
		}
	}
}

// Dist returns the IGP hop distance between two routers, or -1 when
// disconnected.
func (n *Network) Dist(a, b RouterID) int {
	if !n.computed {
		panic("netsim: Compute not called")
	}
	return n.dist[a][b]
}
