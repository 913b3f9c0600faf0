package bench

import "testing"

// TestT19Outcomes pins the experiment's headline claims: the reshape
// commits at epoch 2, the post-join layout is strictly faster than the
// pre-join one (the cluster is server-limited at 8 clients, so the
// fourth server raises the ceiling), the foreground holds the configured
// floor while the migrator copies, and the migrated bytes read back
// identical to the prefill pattern.
func TestT19Outcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("T19 run in short mode")
	}
	r := t19Run(Observation{})
	if r.corrupt {
		t.Fatal("post-reshape read-back not byte-identical")
	}
	if r.Epoch != 2 {
		t.Errorf("layout epoch after commit = %d, want 2", r.Epoch)
	}
	if r.MigDur <= 0 {
		t.Errorf("re-silver window %v, want positive", r.MigDur)
	}
	if r.PostMBps <= r.SteadyMBps {
		t.Errorf("join did not raise bandwidth: post %.1f <= steady %.1f MB/s", r.PostMBps, r.SteadyMBps)
	}
	if r.DuringMBps < t19Floor*r.SteadyMBps {
		t.Errorf("foreground %.1f MB/s under re-silver below the %.0f%% floor of steady %.1f MB/s",
			r.DuringMBps, 100*t19Floor, r.SteadyMBps)
	}
}

// TestT19Deterministic: the elastic run — join, background re-silver,
// commit, cleanup — replays identically: same windows, same bandwidth,
// same rendered table.
func TestT19Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("T19 runs in short mode")
	}
	r1, r2 := t19Run(Observation{}), t19Run(Observation{})
	if r1.Start != r2.Start || r1.End != r2.End || r1.MigDur != r2.MigDur {
		t.Errorf("windows differ: [%v,%v] mig %v vs [%v,%v] mig %v",
			r1.Start, r1.End, r1.MigDur, r2.Start, r2.End, r2.MigDur)
	}
	if r1.SteadyMBps != r2.SteadyMBps || r1.DuringMBps != r2.DuringMBps || r1.PostMBps != r2.PostMBps {
		t.Errorf("bandwidths differ: %.3f/%.3f/%.3f vs %.3f/%.3f/%.3f",
			r1.SteadyMBps, r1.DuringMBps, r1.PostMBps, r2.SteadyMBps, r2.DuringMBps, r2.PostMBps)
	}
	if a, b := T19Elastic().String(), T19Elastic().String(); a != b {
		t.Errorf("two T19 renders differ:\n%s\nvs\n%s", a, b)
	}
}

// TestT15NStripedNFS pins the baseline's point: striping scales NFS too
// (width 2 beats width 1 at 2 clients), but the same point over DAFS is
// strictly faster — the layout effect and the transport effect separate.
func TestT15NStripedNFS(t *testing.T) {
	if testing.Short() {
		t.Skip("striped NFS grid points in short mode")
	}
	bw := func(st stack, s int) float64 {
		return measure(stripePoint("T15N", st, 2, s, stripePer, false)).MBps
	}
	nfs1 := bw(nfsStack, 1)
	nfs2 := bw(nfsStack, 2)
	if nfs2 <= nfs1 {
		t.Errorf("striping does not scale NFS: width 2 %.1f <= width 1 %.1f MB/s", nfs2, nfs1)
	}
	if dafs2 := bw(dafsStack, 2); dafs2 <= nfs2 {
		t.Errorf("DAFS lost its transport edge: striped DAFS %.1f <= striped NFS %.1f MB/s", dafs2, nfs2)
	}
	if again := bw(nfsStack, 2); again != nfs2 {
		t.Errorf("striped NFS point not deterministic: %.3f vs %.3f", again, nfs2)
	}
}
