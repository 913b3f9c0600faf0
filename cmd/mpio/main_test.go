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
// for byte with testdata, and stat's JSON export with the digest of the
// recorded one (2.2 MB, too large to keep). The simulation is
// deterministic, so any change to a table, a breakdown, a series or a
// postmortem shows here.
func TestOutputs(t *testing.T) {
	json := filepath.Join(t.TempDir(), "t16.json")
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"list.txt", []string{"list"}},
		{"run-T9.txt", []string{"run", "-q", "T9"}},
		{"trace-T15.txt", []string{"trace", "T15", "-clients", "2", "-servers", "2", "-hist"}},
		{"stat-T16.txt", []string{"stat", "T16", "-json", json}},
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
	raw, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ac0cacf778e8168afe556e5dcb06f764a2521c9905cd33ccd505133556a289cf"
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("stat T16 JSON export: sha256 %s, want %s", got, want)
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
