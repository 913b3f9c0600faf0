package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputs runs each subcommand in-process and compares its stdout byte
// for byte with testdata, and the JSON exports with the digests of the
// recorded ones (stat's is 2.2 MB, too large to keep). The simulation is
// deterministic, so any change to a table, a breakdown, a series, a span
// or a postmortem shows here. T4 is the paper's single-client DAFS read,
// pinned by its stdout. T6 is the traced run over a single DAFS server,
// T15 the striped contiguous path and T17 the strided collective over
// four servers; each of these runs' Chrome export is pinned beside its
// stdout.
// T19 is the elastic-membership run: a live join, re-silver and commit.
func TestOutputs(t *testing.T) {
	dir := t.TempDir()
	json, json19 := filepath.Join(dir, "t16.json"), filepath.Join(dir, "t19.json")
	chrome6, chrome15, chrome17 := filepath.Join(dir, "t6.json"), filepath.Join(dir, "t15.json"), filepath.Join(dir, "t17.json")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"list.txt", []string{"list"}},
		{"run-T9.txt", []string{"run", "-q", "T9"}},
		{"trace-T15.txt", []string{"trace", "T15", "-clients", "2", "-servers", "2", "-hist", "-trace", chrome15}},
		{"trace-T4.txt", []string{"trace", "T4", "-hist"}},
		{"trace-T6.txt", []string{"trace", "T6", "-hist", "-trace", chrome6}},
		{"trace-T17.txt", []string{"trace", "T17", "-servers", "4", "-hist", "-trace", chrome17}},
		{"stat-T16.txt", []string{"stat", "T16", "-json", json}},
		{"stat-T19.txt", []string{"stat", "T19", "-interval", "25ms", "-json", json19}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := mpio(tc.args, &got); err != nil {
			t.Fatalf("mpio %v: %v", tc.args, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("mpio %v differs from testdata/%s:\n%s", tc.args, tc.golden, got.Bytes())
		}
	}
	for _, d := range []struct{ what, path, want string }{
		{"stat T16 JSON export", json, "ac0cacf778e8168afe556e5dcb06f764a2521c9905cd33ccd505133556a289cf"},
		{"stat T19 JSON export", json19, "b92d166d3b6bcd68968955a487d08158bb3baa73f56f08a0eb705ff60a26fe68"},
		{"trace T6 Chrome export", chrome6, "c9b276231fc1a9a33ae12d06789698628228e3f478ed9e0f3a73924988ead4c9"},
		{"trace T15 Chrome export", chrome15, "c3efa6baf68efe51c37c13582f130893d36333bac62c2c5833276d6d103e704a"},
		{"trace T17 Chrome export", chrome17, "fc0276bf9ec9c7277db35083df733470e7adfc76f7bd2baa7f886e3f0cadbe15"},
	} {
		raw, err := os.ReadFile(d.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != d.want {
			t.Errorf("%s: sha256 %s, want %s", d.what, got, d.want)
		}
	}
}

// TestUsageErrors: what cannot run says so instead of running something
// else.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"run", "T99"},
		{"trace", "T2"},
		{"stat", "T1"},
		{"trace", "T15", "-clients", "0"},
		{"stat", "T16", "-interval", "0s"},
		{"run", "T9", "extra"},
	} {
		if err := mpio(args, new(bytes.Buffer)); err == nil {
			t.Errorf("mpio %q succeeded", args)
		}
	}
}
