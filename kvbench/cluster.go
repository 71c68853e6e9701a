package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/consensus"
	"repro/internal/linear"
	"repro/internal/shard"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wan"
)

// The cluster is booted the way cmd/kv boots a replica, once per replica
// in this process: a one-group shard.Runtime with the shared WAL at
// fsync=always and snapshots every 64 applied commands (the cmd/kv
// defaults), adaptive batching on, a real transport around the runtime's
// handler, and smr.NewBackendServer in front. cmd/kv itself never sets
// shard.Options.AdaptiveBatch, although the option's doc calls it the
// serving configuration; the benchmark sets it.
//
// Every replica link carries its topology's real one-way delay. With
// instant delivery, latency is processor time only, and on a shared host
// it swung twofold between runs minutes apart; stalls of the host (CPU
// steal, fsync waits) add milliseconds that only round trips of tens of
// milliseconds keep small.
const (
	// clientDelay is the one-way delay between the client process and
	// each replica on the TCP workloads (see clientLink).
	clientDelay = time.Millisecond
	tick        = time.Millisecond
	opTimeout   = 30 * time.Second
	leaseDur    = 2 * time.Second       // cmd/kv -lease-dur
	leaseEps    = 50 * time.Millisecond // cmd/kv -lease-eps
)

type cluster struct {
	w     workload
	rts   []*shard.Runtime
	srvs  []*smr.Server
	addrs []string // server addresses, by replica id
	// links front the servers with clientDelay on the TCP workloads; the
	// clients dial them instead of addrs.
	links []*clientLink
	dirs  []string
	mesh  *transport.Mesh
	// floor is the analytical commit floor: the least wan.QuorumRTT for
	// the fast quorum from any slot. No write can commit faster.
	floor time.Duration
}

// boot starts a fresh cluster for w with its data directories under root.
// A non-nil tracer wraps every replica's transport and inbound handler.
// With a preload state, every replica restores it before it starts.
func boot(w workload, root string, tr *tracer, preload []byte) (*cluster, error) {
	c := &cluster{w: w}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	full, err := wan.Preset(w.topology)
	if err != nil {
		return fail(err)
	}
	topo, err := full.Prefix(w.n)
	if err != nil {
		return fail(err)
	}
	var maxRTT consensus.Duration
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			if d := topo.RTTBetween(i, j); d > maxRTT {
				maxRTT = d
			}
		}
	}
	cfgs := make([]consensus.Config, w.n)
	for i := range cfgs {
		// Δ as in the F10 suite, in 1 ms ticks: protocol timers must
		// dominate the largest round trip so no recovery ballot fires on a
		// healthy run.
		cfgs[i] = consensus.Config{ID: consensus.ProcessID(i), N: w.n, F: w.f, E: w.e, Delta: 3*maxRTT + 100}
	}
	for i := 0; i < w.n; i++ {
		f := time.Duration(topo.QuorumRTT(i, cfgs[0].FastQuorum())) * time.Millisecond
		if i == 0 || f < c.floor {
			c.floor = f
		}
	}

	var leases *smr.LeaseOptions
	if w.leases {
		leases = &smr.LeaseOptions{Duration: leaseDur, Epsilon: leaseEps, AutoGrant: true}
	}
	for i := 0; i < w.n; i++ {
		dir, err := os.MkdirTemp(root, fmt.Sprintf("r%d-", i))
		if err != nil {
			return fail(err)
		}
		c.dirs = append(c.dirs, dir)
		rt, err := shard.New(shard.Options{
			Groups:        1,
			Config:        cfgs[i],
			Tick:          tick,
			Durability:    &shard.Durability{Dir: dir, Policy: wal.SyncAlways},
			AdaptiveBatch: true,
			Leases:        leases,
		})
		if err != nil {
			return fail(err)
		}
		c.rts = append(c.rts, rt)
		if preload != nil {
			if err := rt.Group(0).InstallSnapshotJSON(preload); err != nil {
				return fail(err)
			}
		}
	}

	trs := make([]transport.Transport, w.n)
	if w.mesh {
		c.mesh = transport.NewMeshWithDepth(w.n, 4096)
		c.mesh.SetFault(topo.MeshFault(1.0))
		for i, rt := range c.rts {
			ep, err := c.mesh.Endpoint(consensus.ProcessID(i), tr.wrapHandler(rt.Handler()))
			if err != nil {
				return fail(err)
			}
			trs[i] = ep
		}
	} else {
		codec := consensus.NewCodec()
		shard.RegisterMessages(codec)
		addrs := make(map[consensus.ProcessID]string, w.n)
		for i := 0; i < w.n; i++ {
			addrs[consensus.ProcessID(i)] = "127.0.0.1:0"
		}
		tcps := make([]*transport.TCP, w.n)
		for i, rt := range c.rts {
			t, err := transport.NewTCPWithOptions(consensus.ProcessID(i), addrs, codec, tr.wrapHandler(rt.Handler()),
				transport.TCPOptions{LinkDelay: topo.TCPLinkDelay(consensus.ProcessID(i), 1.0)})
			if err != nil {
				for _, prev := range tcps[:i] {
					prev.Close()
				}
				return fail(err)
			}
			tcps[i] = t
		}
		for i := range tcps {
			for j := range tcps {
				if i != j {
					tcps[i].SetPeerAddr(consensus.ProcessID(j), tcps[j].Addr())
				}
			}
			trs[i] = tcps[i]
		}
	}
	for i, rt := range c.rts {
		rt.BindTransport(tr.wrapTransport(trs[i]))
		rt.Start()
	}
	for _, rt := range c.rts {
		srv, err := smr.NewBackendServer(rt, "127.0.0.1:0", opTimeout)
		if err != nil {
			return fail(err)
		}
		c.srvs = append(c.srvs, srv)
		c.addrs = append(c.addrs, srv.Addr())
		if !w.mesh {
			l, err := startClientLink(srv.Addr(), clientDelay)
			if err != nil {
				return fail(err)
			}
			c.links = append(c.links, l)
		}
	}
	return c, nil
}

// close tears everything down and removes the data directories.
func (c *cluster) close() {
	for _, l := range c.links {
		l.close()
	}
	for _, s := range c.srvs {
		s.Close()
	}
	for _, rt := range c.rts {
		rt.Close()
	}
	if c.mesh != nil {
		c.mesh.Close()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
}

// replica returns replica i's (only) consensus group.
func (c *cluster) replica(i int) *smr.Replica { return c.rts[i].Group(0) }

// clients dials n session connections with depth operations in flight
// each. On the Mesh workload they are pinned to slot 0 (eu-west); on the
// TCP workloads they go through the client links and follow the Ω-leader
// hint and lease-held redirects, like cmd/kv -connect.
func (c *cluster) clients(n, depth int) ([]*smr.SessionClient, error) {
	addrs, prefer := c.addrs[:1], false
	if !c.w.mesh {
		addrs, prefer = nil, true
		for _, l := range c.links {
			addrs = append(addrs, l.addr())
		}
	}
	var out []*smr.SessionClient
	for i := 0; i < n; i++ {
		sc, err := smr.NewSessionClient(addrs, smr.SessionOptions{
			Timeout: opTimeout, Depth: depth, PreferLeader: prefer,
		})
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func closeClients(cs []*smr.SessionClient) {
	for _, sc := range cs {
		sc.Close()
	}
}

// awaitLease waits until some replica holds the auto-granted lease and
// returns its id.
func (c *cluster) awaitLease(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i := range c.rts {
			if c.replica(i).HoldsLease() {
				return i, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return -1, fmt.Errorf("no replica acquired the lease within %v", timeout)
}

// awaitApplied waits until every replica has applied the same index, so a
// phase starts with no follower still catching up.
func (c *cluster) awaitApplied(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		a := c.replica(0).Applied()
		same := true
		for i := 1; i < len(c.rts); i++ {
			if c.replica(i).Applied() != a {
				same = false
			}
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge on one applied index within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// preloadState is the replica state every replica is restored to before a
// preloaded round: each key at its preload value, as the JSON that
// smr.Replica.SnapshotJSON exports and InstallSnapshotJSON restores.
// The restore path (a backup restored on every replica) keeps the writes
// of the preload out of the consensus log, so set-up does not pay ~85 ms
// of nested JSON per 1000-key PutAll batch.
func preloadState(w workload) ([]byte, error) {
	store := make(map[string]string, w.keys)
	for i := 0; i < w.keys; i++ {
		store[keyName(i)] = preloadValue(i)
	}
	return json.Marshal(struct {
		Applied int               `json:"applied"`
		Store   map[string]string `json:"store"`
	}{1, store})
}

// recordPreload enters the preload of every key into the history, as
// writes that completed before any client operation.
func recordPreload(keys int, h *linear.Recorder) {
	pend := make([]*linear.PendingOp, keys)
	for i := range pend {
		pend[i] = h.Invoke(-1, linear.KindPut, keyName(i), preloadValue(i))
	}
	for _, p := range pend {
		p.OK()
	}
}

// counters sums the layers' counters over every replica.
type counters struct {
	batches, cmds             uint64
	sends, bytesSent, drops   uint64
	walSyncs, walRecs         uint64
	leaseHits, leaseMisses    uint64
	readRounds, leaseRefused  uint64
	frames, busy              uint64
	openSlots, compactFloor   int
	walLiveBytes, walLiveRecs uint64
}

func (c *cluster) counters() counters {
	var k counters
	for i, rt := range c.rts {
		r := c.replica(i)
		bs := r.BatchStats()
		k.batches += bs.Batches
		k.cmds += bs.Cmds
		if st, ok := r.TransportStats(); ok {
			k.sends += st.Sends
			k.bytesSent += st.BytesSent
			k.drops += st.Drops
		}
		if ws, ok := rt.WalStats(); ok {
			k.walSyncs += ws.Syncs
			k.walRecs += ws.NextIndex
			k.walLiveBytes += uint64(ws.Bytes)
			if first, ok := oldestSegment(filepath.Join(c.dirs[i], "wal")); ok && ws.NextIndex > first {
				k.walLiveRecs += ws.NextIndex - first
			}
		}
		ls := r.LeaseStats()
		k.leaseHits += ls.Hits
		k.leaseMisses += ls.Misses
		k.readRounds += ls.ReadRounds
		k.leaseRefused += ls.Refused
		info := r.Info()
		if info.OpenSlots > k.openSlots {
			k.openSlots = info.OpenSlots
		}
		if info.CompactFloor > k.compactFloor {
			k.compactFloor = info.CompactFloor
		}
	}
	for _, s := range c.srvs {
		sc := s.Counters()
		k.frames += sc.Frames
		k.busy += sc.Busy
	}
	return k
}

// oldestSegment returns the first record index of the oldest live WAL
// segment in dir (segment files are named wal-<first index, hex>.seg).
func oldestSegment(dir string) (uint64, bool) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, false
	}
	var firsts []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 16, 64)
		if err == nil {
			firsts = append(firsts, v)
		}
	}
	if len(firsts) == 0 {
		return 0, false
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts[0], true
}
