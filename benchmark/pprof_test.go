package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// A minimal profile.proto encoder, enough to build a CPU profile by hand.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, data []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func pbPacked(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = pbVarint(b, v)
	}
	return b
}

func TestPackageSharesFromProfile(t *testing.T) {
	strs := []string{"", "runtime.memmove", "dafsio/internal/storage.(*File).ensure", "dafsio/internal/dafs.(*Server).exec",
		"dafsio/internal/sim.(*worker).loop", "runtime.gcBgMarkWorker", "main.runWorkload", "dafsio/internal/layout.Striping.Map"}
	var prof []byte
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, id), 2, id))                  // function id, name index id
		prof = pbBytes(prof, 4, pbBytes(pbUint(nil, 1, id), 4, pbUint(nil, 1, id))) // location id with one line
	}
	sample := func(ns uint64, locs ...uint64) {
		s := pbBytes(nil, 1, pbPacked(locs...))
		s = pbBytes(s, 2, pbPacked(1, ns))
		prof = pbBytes(prof, 2, s)
	}
	sample(60, 1, 2, 3, 4) // memmove <- storage.ensure <- dafs exec <- sim loop: storage's
	sample(20, 5)          // the collector: runtime's
	sample(10, 1, 6)       // memmove in the harness itself: other
	sample(10, 7, 3, 4)    // layout has no share of its own: other
	// One unpacked location id, as older encoders write them.
	prof = pbBytes(prof, 2, pbBytes(pbUint(nil, 1, 4), 2, pbPacked(1, 100)))

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof)
	zw.Close()
	for _, raw := range [][]byte{prof, zipped.Bytes()} {
		shares, err := packageShares(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{"storage": 0.3, "runtime": 0.1, "other": 0.1, "sim": 0.5}
		for pkg := range hostcpuPackages {
			if math.Abs(shares[pkg]-want[pkg]) > 1e-9 {
				t.Errorf("share of %s = %v, want %v", pkg, shares[pkg], want[pkg])
			}
		}
	}
	if _, err := packageShares([]byte{0x12, 0x7f, 0x01}); err == nil {
		t.Error("a truncated profile parsed")
	}
}
