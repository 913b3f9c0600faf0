package bench

import (
	"slices"
	"testing"
)

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
	r := observed(t, "T19", Observation{}) // a corrupt read-back panics
	steady, during, post := r.phases[0], r.phases[1], r.phases[2]
	if r.epoch != 2 {
		t.Errorf("layout epoch after commit = %d, want 2", r.epoch)
	}
	if during.dur() <= 0 {
		t.Errorf("re-silver window %v, want positive", during.dur())
	}
	if post.mbps() <= steady.mbps() {
		t.Errorf("join did not raise bandwidth: post %.1f <= steady %.1f MB/s", post.mbps(), steady.mbps())
	}
	if during.mbps() < t19Floor*steady.mbps() {
		t.Errorf("foreground %.1f MB/s under re-silver below the %.0f%% floor of steady %.1f MB/s",
			during.mbps(), 100*t19Floor, steady.mbps())
	}
}

// TestT19Deterministic: the elastic run — join, background re-silver,
// commit, cleanup — replays identically: same windows, same bandwidth,
// same rendered table.
func TestT19Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("T19 runs in short mode")
	}
	r1, r2 := observed(t, "T19", Observation{}), observed(t, "T19", Observation{})
	if r1.Start != r2.Start || r1.End != r2.End || !slices.Equal(r1.phases, r2.phases) {
		t.Errorf("runs differ: [%v,%v] %v vs [%v,%v] %v", r1.Start, r1.End, r1.phases, r2.Start, r2.End, r2.phases)
	}
	if a, b := experiment("T19").Run().String(), experiment("T19").Run().String(); a != b {
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
		return run(stripePoint(st, 2, s, stripePer, false), Observation{}).MBps
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
