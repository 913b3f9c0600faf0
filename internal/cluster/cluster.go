// Package cluster assembles the standard experiment topology: one or more
// file servers and N client hosts on a shared SAN, with DAFS servers (over
// VIA), NFS servers (over the kernel stack), or both — plus an optional
// MPI world spanning the clients. With Servers > 1 each server gets its
// own node and store, the substrate for striped (parallel-file-system
// style) experiments; Servers == 1 is the paper's topology.
//
// Every test, benchmark, example, and CLI in this repository builds its
// machines through this package so that all results come from identical
// hardware assumptions.
package cluster

import (
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/fault"
	"dafsio/internal/kstack"
	"dafsio/internal/metrics"
	"dafsio/internal/model"
	"dafsio/internal/mpi"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// Config selects the topology.
type Config struct {
	// Clients is the number of client hosts (>= 1).
	Clients int
	// Servers is the number of server hosts (default 1). Each server gets
	// its own node, store, and (with ServerDisk) disk, plus a DAFS server
	// on its own NIC (with DAFS) and an NFS export (with NFS).
	Servers int
	// Profile is the cost model (default model.CLAN1998()).
	Profile *model.Profile
	// DAFS starts a DAFS server and puts a VIA NIC on every client.
	DAFS bool
	// NFS starts an NFS server on every server node, each exporting its
	// own store, and puts a kernel stack on every client. Server 0's export
	// is NFSSrv, the one MountNFS mounts; a striped-NFS baseline mounts
	// them all (one mount per server, striping done client-side).
	NFS bool
	// MPI builds an MPI world across the clients (requires VIA NICs; they
	// are added even when DAFS is off).
	MPI bool
	// ServerDisk backs the store with a disk model (default: fully
	// cached, the paper-era configuration).
	ServerDisk bool
	// Tracer, when non-nil, records cross-layer spans for every DAFS/VIA
	// operation in the cluster. It must be built on the cluster's kernel,
	// before any NIC or server: use trace.New, which New calls at that
	// point. Tracing is observational: simulated timing is identical with
	// it on or off.
	Tracer func(k *sim.Kernel) *trace.Tracer
	// Faults, when non-nil, installs a fault-injection plan on the cluster,
	// wired exactly like Tracer: use fault.Installer(plan). Component
	// events (server crash, slow disk) are scheduled as kernel events at
	// their plan times; wire events (stall, drop, dup) are consulted by
	// every NIC's transmit path. Nil means a fault-free cluster with
	// bit-identical behaviour to builds without the hook.
	Faults func(k *sim.Kernel) *fault.Injector
	// Metrics, when non-nil, installs the metrics plane, wired exactly
	// like Tracer: use metrics.Installer(tick). Only `mpio stat` and the
	// benchmark's traced run install it; every other run has no
	// registry. Every layer built afterwards registers its instruments
	// with the registry, and each injected component fault bumps the
	// fault.injected counter. Observational only — simulated
	// results are byte-identical with it on or off.
	Metrics func(k *sim.Kernel) *metrics.Registry
}

// Cluster is the assembled testbed.
type Cluster struct {
	K     *sim.Kernel
	Prof  *model.Profile
	Fab   *fabric.Fabric
	Prov  *via.Provider
	Store *storage.Store // server 0's store (the only one with Servers == 1)
	Disk  *storage.Disk  // server 0's disk (nil unless ServerDisk)

	ServerNode *fabric.Node // server 0
	DAFSSrv    *dafs.Server // server 0
	NFSSrv     *nfs.Server

	// Per-server slices, in server order; index 0 aliases the singular
	// fields above. DAFSSrvs is nil when DAFS is off.
	ServerNodes []*fabric.Node
	Stores      []*storage.Store
	Disks       []*storage.Disk
	DAFSSrvs    []*dafs.Server
	NFSSrvs     []*nfs.Server // nil when NFS is off

	ClientNodes []*fabric.Node
	NICs        []*via.NIC      // per client (when DAFS or MPI)
	Stacks      []*kstack.Stack // per client (when NFS)
	World       *mpi.World      // when MPI

	Tracer  *trace.Tracer     // non-nil when the config enabled tracing
	Faults  *fault.Injector   // non-nil when the config installed faults
	Metrics *metrics.Registry // non-nil when the config installed metrics

	cfg   Config // build recipe, reused when servers join mid-run
	epoch uint32 // membership epoch: 1 at build, +1 per AddServer
}

// New builds a cluster.
func New(cfg Config) *Cluster {
	if cfg.Clients < 1 {
		panic("cluster: need at least one client")
	}
	servers := cfg.Servers
	if servers == 0 {
		servers = 1
	}
	if servers < 1 {
		panic("cluster: need at least one server")
	}
	prof := cfg.Profile
	if prof == nil {
		prof = model.CLAN1998()
	}
	k := sim.NewKernel()
	c := &Cluster{
		K:     k,
		Prof:  prof,
		Fab:   fabric.New(k, prof),
		Store: storage.NewStore(),
	}
	c.Prov = via.NewProvider(c.Fab)
	if cfg.Tracer != nil {
		// The tracer must exist before any NIC or server is built: they
		// capture the provider's tracer at construction.
		c.Tracer = cfg.Tracer(k)
		c.Prov.Tracer = c.Tracer
	}
	if cfg.Faults != nil {
		c.Faults = cfg.Faults(k)
		c.Prov.Faults = c.Faults
	}
	if cfg.Metrics != nil {
		// Like the tracer, the registry must exist before any NIC or server
		// is built: components register instruments at construction.
		c.Metrics = cfg.Metrics(k)
		c.Prov.Metrics = c.Metrics
	}
	c.cfg = cfg
	c.cfg.Servers = servers
	c.cfg.Profile = prof
	c.epoch = 1
	// Server 0 keeps the seed topology's names and construction order so
	// single-server experiments are bit-for-bit unchanged; extra servers
	// follow the same recipe with their own node, store, and disk.
	for i := 0; i < servers; i++ {
		c.buildServer(i)
	}
	c.ServerNode = c.ServerNodes[0]
	c.Disk = c.Disks[0]
	if cfg.DAFS {
		c.DAFSSrv = c.DAFSSrvs[0]
	}
	if cfg.NFS {
		// Like the DAFS servers: per-server store and disk, each export
		// on its own node and kernel stack.
		for i := 0; i < servers; i++ {
			stack := kstack.New(c.ServerNodes[i], prof, k)
			c.NFSSrvs = append(c.NFSSrvs, nfs.NewServer(stack, prof, k, c.Stores[i], c.Disks[i]))
		}
		c.NFSSrv = c.NFSSrvs[0]
	}
	for i := 0; i < cfg.Clients; i++ {
		node := c.Fab.AddNode(fmt.Sprintf("client%d", i))
		c.ClientNodes = append(c.ClientNodes, node)
		if cfg.DAFS || cfg.MPI {
			c.NICs = append(c.NICs, c.Prov.NewNIC(node))
		}
		if cfg.NFS {
			c.Stacks = append(c.Stacks, kstack.New(node, prof, k))
		}
	}
	if cfg.MPI {
		c.World = mpi.NewWorld(c.NICs)
	}
	c.scheduleFaults()
	return c
}

// buildServer appends server i's node, store, disk, and (with DAFS on)
// DAFS server, following the seed recipe. Used at build time and by
// AddServer for mid-run joins.
func (c *Cluster) buildServer(i int) {
	name := "server"
	store := c.Store
	if i > 0 {
		name = fmt.Sprintf("server%d", i)
		store = storage.NewStore()
	}
	node := c.Fab.AddNode(name)
	c.ServerNodes = append(c.ServerNodes, node)
	c.Stores = append(c.Stores, store)
	var disk *storage.Disk
	if c.cfg.ServerDisk {
		disk = storage.NewDisk(c.K, c.Prof.DiskSeek, c.Prof.DiskBW)
	}
	c.Disks = append(c.Disks, disk)
	if c.cfg.DAFS {
		c.DAFSSrvs = append(c.DAFSSrvs, dafs.NewServer(c.Prov.NewNIC(node), store, disk))
	}
}

// AddServer grows the cluster mid-run: it provisions the next server
// node (NIC, store, disk, DAFS server) by the build recipe, bumps the
// membership epoch, and fences the newcomer at the join epoch — only
// clients that dialed with knowledge of the join (Options.Epoch >= the
// returned epoch) are admitted, so a stale client can never half-use a
// server its layout does not know about. Returns the new server's index
// and the join epoch. Callers then dial it (DialDAFSServer stamps the
// current epoch) and re-silver or reshape their layouts onto it.
func (c *Cluster) AddServer() (s int, epoch uint32) {
	s = len(c.ServerNodes)
	c.buildServer(s)
	c.epoch++
	if c.cfg.DAFS {
		c.DAFSSrvs[s].SetFence(c.epoch)
	}
	return s, c.epoch
}

// scheduleFaults turns the installed plan's component-level events into
// kernel events against the named nodes. Wire-level events (stall, drop,
// dup) need no scheduling: the NICs consult the injector directly. With
// metrics installed, each injected event bumps the fault.injected counter.
func (c *Cluster) scheduleFaults() {
	var injected metrics.Counter
	if c.Metrics != nil && len(c.Faults.Events()) > 0 {
		injected = c.Metrics.Counter("fault.injected")
	}
	for _, ev := range c.Faults.Events() {
		ev := ev
		switch ev.Kind {
		case fault.ServerCrash:
			node := c.nodeByName(ev.Node)
			srv := c.dafsSrvOn(node)
			c.K.At(ev.At, func() {
				if nic := c.Prov.NIC(node.ID); nic != nil {
					nic.Kill()
				}
				if srv != nil {
					srv.Crash()
				}
				injected.Inc()
			})
		case fault.ServerRestart:
			node := c.nodeByName(ev.Node)
			srv := c.dafsSrvOn(node)
			c.K.At(ev.At, func() {
				if nic := c.Prov.NIC(node.ID); nic != nil {
					nic.Revive()
				}
				if srv != nil {
					srv.Restart()
				}
				injected.Inc()
			})
		case fault.SlowDisk:
			disk := c.diskOn(c.nodeByName(ev.Node))
			if disk == nil {
				panic(fmt.Sprintf("cluster: slow-disk fault on %q, which has no disk", ev.Node))
			}
			c.K.At(ev.At, func() {
				disk.SetSlowdown(ev.Factor)
				injected.Inc()
			})
			c.K.At(ev.At+ev.Dur, func() { disk.SetSlowdown(1) })
		}
	}
}

// nodeByName resolves a fault target.
func (c *Cluster) nodeByName(name string) *fabric.Node {
	for _, n := range c.ServerNodes {
		if n.Name == name {
			return n
		}
	}
	for _, n := range c.ClientNodes {
		if n.Name == name {
			return n
		}
	}
	panic(fmt.Sprintf("cluster: fault names unknown node %q", name))
}

// dafsSrvOn returns the DAFS server hosted on the node, or nil.
func (c *Cluster) dafsSrvOn(node *fabric.Node) *dafs.Server {
	for i, n := range c.ServerNodes {
		if n == node && i < len(c.DAFSSrvs) {
			return c.DAFSSrvs[i]
		}
	}
	return nil
}

// diskOn returns the disk on the node, or nil.
func (c *Cluster) diskOn(node *fabric.Node) *storage.Disk {
	for i, n := range c.ServerNodes {
		if n == node {
			return c.Disks[i]
		}
	}
	return nil
}

// DialDAFS opens a DAFS session from client i to server 0 (the only
// server in the paper's topology).
func (c *Cluster) DialDAFS(p *sim.Proc, i int, opts *dafs.Options) (*dafs.Client, error) {
	return c.DialDAFSServer(p, i, 0, opts)
}

// DialDAFSServer opens a DAFS session from client i to server s. All
// sessions of a client share its one NIC, so a buffer registered for one
// session's direct I/O is usable by every session of the pool.
func (c *Cluster) DialDAFSServer(p *sim.Proc, i, s int, opts *dafs.Options) (*dafs.Client, error) {
	if len(c.DAFSSrvs) == 0 {
		return nil, fmt.Errorf("cluster: no DAFS server configured")
	}
	if s < 0 || s >= len(c.DAFSSrvs) {
		return nil, fmt.Errorf("cluster: no DAFS server %d (have %d)", s, len(c.DAFSSrvs))
	}
	// Stamp the current membership epoch unless the caller pinned one —
	// the normal way clients present a fresh view to fenced (newly
	// joined) servers. The caller's Options are never mutated.
	var o dafs.Options
	if opts != nil {
		o = *opts
	}
	if o.Epoch == 0 {
		o.Epoch = c.epoch
	}
	cl, err := dafs.Dial(p, c.NICs[i], c.DAFSSrvs[s], &o)
	if err != nil {
		return nil, err
	}
	cl.SetTraceServer(s)
	return cl, nil
}

// DialDAFSAll opens one session from client i to every DAFS server, in
// server order — the session pool a striped driver needs.
func (c *Cluster) DialDAFSAll(p *sim.Proc, i int, opts *dafs.Options) ([]*dafs.Client, error) {
	if len(c.DAFSSrvs) == 0 {
		return nil, fmt.Errorf("cluster: no DAFS server configured")
	}
	clients := make([]*dafs.Client, len(c.DAFSSrvs))
	for s := range c.DAFSSrvs {
		cl, err := c.DialDAFSServer(p, i, s, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: dial server %d: %w", s, err)
		}
		clients[s] = cl
	}
	return clients, nil
}

// MountNFS mounts the NFS export from client i.
func (c *Cluster) MountNFS(p *sim.Proc, i int, opts *nfs.MountOptions) (*nfs.Client, error) {
	if c.NFSSrv == nil {
		return nil, fmt.Errorf("cluster: no NFS server configured")
	}
	return nfs.Mount(p, c.Stacks[i], c.NFSSrv, opts)
}

// MountNFSServer mounts server s's NFS export from client i.
func (c *Cluster) MountNFSServer(p *sim.Proc, i, s int, opts *nfs.MountOptions) (*nfs.Client, error) {
	if s < 0 || s >= len(c.NFSSrvs) {
		return nil, fmt.Errorf("cluster: no NFS server %d (have %d)", s, len(c.NFSSrvs))
	}
	return nfs.Mount(p, c.Stacks[i], c.NFSSrvs[s], opts)
}

// MountNFSAll mounts every NFS export from client i, in server order —
// the mount pool a client-side striped NFS driver needs.
func (c *Cluster) MountNFSAll(p *sim.Proc, i int, opts *nfs.MountOptions) ([]*nfs.Client, error) {
	if len(c.NFSSrvs) == 0 {
		return nil, fmt.Errorf("cluster: no NFS server configured")
	}
	mounts := make([]*nfs.Client, len(c.NFSSrvs))
	for s := range c.NFSSrvs {
		m, err := c.MountNFSServer(p, i, s, opts)
		if err != nil {
			return nil, fmt.Errorf("cluster: mount server %d: %w", s, err)
		}
		mounts[s] = m
	}
	return mounts, nil
}

// Run drives the simulation to completion.
func (c *Cluster) Run() error { return c.K.Run() }

// SpawnClients starts fn on every client host and runs the simulation.
// Each process receives its client index.
func (c *Cluster) SpawnClients(fn func(p *sim.Proc, i int)) error {
	for i := range c.ClientNodes {
		i := i
		c.K.Spawn(fmt.Sprintf("client%d.app", i), func(p *sim.Proc) { fn(p, i) })
	}
	return c.Run()
}
