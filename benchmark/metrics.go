package main

import "strings"

// metricDef names one metric: its unit, which direction is better, and for
// an end-to-end metric the bound by which its median may worsen before
// -compare reports a regression.
type metricDef struct {
	name   string
	unit   string
	higher bool    // better: higher
	rel    float64 // bound as a share of the baseline median
	abs    float64 // absolute floor of the bound, in the metric's unit (host clock only)
	sim    bool    // simulated clock: identical on every run of one commit
}

// bound is max(relative, absolute floor): a workload a later change makes
// short must not trip on host noise.
func (m metricDef) bound(baseline float64) float64 {
	return max(m.rel*baseline, m.abs)
}

// Units say which clock a time is on: sim_us, sim_ms are simulated time,
// s is host time. The host-clock bounds are what the 2-core sandbox can
// resolve at this commit, not what one would like: its memory bandwidth
// swings by a fifth from minute to minute (a fixed memmove loop reads
// 0.17..0.26s while a fixed arithmetic loop stays within 2%), and it has slow
// phases of a minute or so in which every host time, user CPU time included,
// is 30% worse, while the simulator's host time is memmove and page faults
// (storage.File.ensure regrowth). Ten 10-second runs of one commit spread by
// up to 28% on the host wall of the timed passes, and no statistic of one run
// survives a phase that outlasts the run. The PR driver refuses a benchmark
// whose metric spreads by more than its bound (0.25 at most), so that time
// and the event rate over it are layer metrics, sim.host_wall_s and
// sim.events_per_host_s: reported, never gated. The allocation metrics,
// which barely move with the host, carry small changes. setup_s is the one
// host time the contract demands: it times the stack only (cluster.New to
// the start barrier, not the exec or the input generation before it) and is
// the median of the reps and of further children that only set up.
var endToEnd = []metricDef{
	{name: "sim_write_MBps", unit: "MB/s", higher: true, rel: 0.001, sim: true},
	{name: "sim_read_MBps", unit: "MB/s", higher: true, rel: 0.001, sim: true},
	{name: "sim_write_op_p50_us", unit: "sim_us", rel: 0.001, sim: true},
	{name: "sim_write_op_p95_us", unit: "sim_us", rel: 0.001, sim: true},
	{name: "sim_write_op_max_us", unit: "sim_us", rel: 0.001, sim: true},
	{name: "sim_read_op_p50_us", unit: "sim_us", rel: 0.001, sim: true},
	{name: "sim_read_op_p95_us", unit: "sim_us", rel: 0.001, sim: true},
	{name: "sim_client_cpu_ms_per_MB", unit: "sim_ms/MB", rel: 0.001, sim: true},
	{name: "setup_s", unit: "s", rel: 0.25, abs: 0.15},
	{name: "host_peak_rss_MB", unit: "MB", rel: 0.25, abs: 16},
	{name: "host_alloc_B_per_event", unit: "B/event", rel: 0.15},
	{name: "host_allocs_per_event", unit: "1/event", rel: 0.02},
}

// perLayer lists every per-layer metric of the traced run, layer by layer.
// A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// via: raw transport, from the ladder; counts over the workload's timed window.
	{name: "via.send_1way_us_4K", unit: "sim_us"},
	{name: "via.send_MBps_1M", unit: "MB/s", higher: true},
	{name: "via.rdma_write_MBps_1M", unit: "MB/s", higher: true},
	{name: "via.register_us_1M", unit: "sim_us"},
	{name: "via.sends", unit: "count"},
	{name: "via.rdma_writes", unit: "count"},
	{name: "via.rdma_reads", unit: "count"},
	{name: "via.bytes_out", unit: "B"},
	// dafs
	{name: "dafs.read_us_4K", unit: "sim_us"},
	{name: "dafs.write_us_4K", unit: "sim_us"},
	{name: "dafs.read_direct_MBps_1M", unit: "MB/s", higher: true},
	{name: "dafs.write_direct_MBps_1M", unit: "MB/s", higher: true},
	{name: "dafs.write_batch_MBps_128Bx8192", unit: "MB/s", higher: true},
	{name: "dafs.dial_sim_us", unit: "sim_us"},
	{name: "dafs.dial_host_us", unit: "us"},
	{name: "dafs.ops", unit: "count"},
	{name: "dafs.inline_bytes", unit: "B"},
	{name: "dafs.direct_bytes", unit: "B"},
	{name: "dafs.server_requests", unit: "count"},
	{name: "dafs.credit_waits", unit: "count"},
	{name: "dafs.retries", unit: "count"},
	{name: "dafs.redials", unit: "count"},
	// mpiio
	{name: "mpiio.tax_us_4K", unit: "sim_us"},
	{name: "mpiio.tax_us_1M", unit: "sim_us"},
	{name: "mpiio.nfs_tax_us_4K", unit: "sim_us"},
	{name: "mpiio.write_MBps_4K", unit: "MB/s", higher: true},
	{name: "mpiio.write_MBps_64K", unit: "MB/s", higher: true},
	{name: "mpiio.write_MBps_1M", unit: "MB/s", higher: true},
	{name: "mpiio.read_MBps_4K", unit: "MB/s", higher: true},
	{name: "mpiio.read_MBps_64K", unit: "MB/s", higher: true},
	{name: "mpiio.read_MBps_1M", unit: "MB/s", higher: true},
	{name: "mpiio.coll_write_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.coll_read_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.batch_write_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.batch_read_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.perseg_write_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.perseg_read_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.batch16K_write_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.batch16K_read_MBps", unit: "MB/s", higher: true},
	{name: "mpiio.stripe_fanout", unit: "frag/call"},
	{name: "mpiio.batch_segments", unit: "count"},
	{name: "mpiio.stage_pool_highwater", unit: "count"},
	{name: "mpiio.replica_exclusions", unit: "count"},
	// mpi
	{name: "mpi.sendrecv_1way_us_4K", unit: "sim_us"},
	{name: "mpi.sendrecv_MBps_1M", unit: "MB/s", higher: true},
	{name: "mpi.barrier_us_4r", unit: "sim_us"},
	{name: "mpi.alltoallv_MBps_4r_1M", unit: "MB/s", higher: true},
	// aggregate, layout: host cost of planning, and the plan's shape
	{name: "aggregate.gather_host_us_8192seg", unit: "us"},
	{name: "aggregate.domains_host_us", unit: "us"},
	{name: "aggregate.segments_per_server", unit: "count"},
	{name: "layout.map_host_ns_256K_w4", unit: "ns"},
	{name: "layout.fragments_per_request", unit: "count"},
	// kstack, nfs
	{name: "kstack.udp_1way_us_4K", unit: "sim_us"},
	{name: "kstack.udp_MBps_32K", unit: "MB/s", higher: true},
	{name: "nfs.read_us_4K", unit: "sim_us"},
	{name: "nfs.write_us_4K", unit: "sim_us"},
	{name: "nfs.read_MBps_1M", unit: "MB/s", higher: true},
	{name: "nfs.rpcs", unit: "count"},
	// storage
	{name: "storage.append_host_ns_per_KB_64Kx512", unit: "ns/KB"},
	{name: "storage.readat_host_ns_per_KB", unit: "ns/KB"},
	{name: "storage.disk_busy_share", unit: "ratio"},
	// fabric: busy shares of the shared resources over the timed window
	{name: "fabric.client_cpu_busy_share", unit: "ratio"},
	{name: "fabric.server_cpu_busy_share", unit: "ratio"},
	{name: "fabric.server_link_load_share", unit: "ratio"},
	// sim: the kernel itself
	{name: "sim.events", unit: "count"},
	{name: "sim.host_wall_s", unit: "s"},
	{name: "sim.events_per_host_s", unit: "events/s", higher: true},
	{name: "sim.synthetic_events_per_s", unit: "events/s", higher: true},
	{name: "sim.goroutines_after_run", unit: "count"},
	{name: "sim.live_heap_MB_after_run", unit: "MB"},
	// cluster
	{name: "cluster.new_host_ms", unit: "ms"},
	{name: "cluster.sessions", unit: "count"},
	{name: "cluster.dial_host_us_per_session", unit: "us"},
	// fault
	{name: "fault.events_fired", unit: "count"},
	{name: "fault.recovery_ms", unit: "sim_ms"},
	// trace: the existing plane's attribution of root-operation time
	{name: "trace.client-cpu_share", unit: "ratio"},
	{name: "trace.doorbell_share", unit: "ratio"},
	{name: "trace.nic-dma_share", unit: "ratio"},
	{name: "trace.wire_share", unit: "ratio"},
	{name: "trace.server-cpu_share", unit: "ratio"},
	{name: "trace.disk_share", unit: "ratio"},
	{name: "trace.queue-wait_share", unit: "ratio"},
	{name: "trace.retry_share", unit: "ratio"},
	{name: "trace.other_share", unit: "ratio"},
	{name: "trace.overhead_share", unit: "ratio"},
	// host CPU of the traced run, folded by package
	{name: "hostcpu.sim_share", unit: "ratio"},
	{name: "hostcpu.storage_share", unit: "ratio"},
	{name: "hostcpu.via_share", unit: "ratio"},
	{name: "hostcpu.dafs_share", unit: "ratio"},
	{name: "hostcpu.mpiio_share", unit: "ratio"},
	{name: "hostcpu.mpi_share", unit: "ratio"},
	{name: "hostcpu.fabric_share", unit: "ratio"},
	{name: "hostcpu.nfs_share", unit: "ratio"},
	{name: "hostcpu.kstack_share", unit: "ratio"},
	{name: "hostcpu.aggregate_share", unit: "ratio"},
	{name: "hostcpu.runtime_share", unit: "ratio"},
	{name: "hostcpu.other_share", unit: "ratio"},
}

// hostcpuPackages are the packages with a hostcpu.<pkg>_share of their own.
var hostcpuPackages = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range perLayer {
		if pkg, ok := strings.CutPrefix(d.name, "hostcpu."); ok {
			m[strings.TrimSuffix(pkg, "_share")] = true
		}
	}
	return m
}()

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}
