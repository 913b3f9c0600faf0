package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutputs runs each subcommand in-process and compares its stdout byte
// for byte with testdata, and the JSON exports with the digests of the
// recorded ones (stat's is 2.2 MB, too large to keep). The simulation is
// deterministic, so any change to a table, a breakdown, a series or a
// span shows here. A stat export is pinned as two digests: its
// sim.kernel.* series, which count the simulator's own events and procs,
// and everything else, the model's series. A change to how the kernel
// runs the model moves only the first. T4 is the paper's single-client
// DAFS read, pinned by its stdout. T6 is the traced run over a single DAFS server,
// T15's point 5 the striped contiguous path (2 clients, 2 servers) and
// T17's point 8 the strided collective over four servers; each of these
// runs' Chrome export is pinned beside its stdout. list T18 pins how a
// table's points are numbered.
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
		{"list-T18.txt", []string{"list", "T18"}},
		{"run-T9.txt", []string{"run", "-q", "T9"}},
		{"trace-T15.txt", []string{"trace", "T15", "-point", "5", "-hist", "-trace", chrome15}},
		{"trace-T4.txt", []string{"trace", "T4", "-hist"}},
		{"trace-T6.txt", []string{"trace", "T6", "-hist", "-trace", chrome6}},
		{"trace-T17.txt", []string{"trace", "T17", "-point", "8", "-hist", "-trace", chrome17}},
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
	for _, d := range []struct{ what, path, kernel, model string }{
		{"stat T16 JSON export", json, "e7023dd5cd744c6cf8f4669236d2e31484b4fb23024737359d9ccd44f2479560", "cf96c17842f3fb1288652cfb988b9d79f16afed3f707ffc6e644c2119ba7285e"},
		{"stat T19 JSON export", json19, "9c28fe246832e9a6faed80fe7dd5f7c8bdcee19d9c646682d8e6766bec9cb2ac", "936676004f5d839db2cf9dd68098293a18235ee7bdfabce962fa6f40c024ee0c"},
	} {
		kernel, model := statDigests(t, d.path)
		if kernel != d.kernel {
			t.Errorf("%s: sim.kernel.* series sha256 %s, want %s", d.what, kernel, d.kernel)
		}
		if model != d.model {
			t.Errorf("%s: model sha256 %s, want %s", d.what, model, d.model)
		}
	}
	for _, d := range []struct{ what, path, want string }{
		{"trace T6 Chrome export", chrome6, "e688cac09efb3e91801899068520089c753d5a0269bab1a66ad87943c7e9c716"},
		{"trace T15 Chrome export", chrome15, "c3efa6baf68efe51c37c13582f130893d36333bac62c2c5833276d6d103e704a"},
		{"trace T17 Chrome export", chrome17, "fa5811239d6602e6a98c4347194f73be25f5577fd38fc71d0b0010b22d718320"},
	} {
		raw, err := os.ReadFile(d.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(raw); got != d.want {
			t.Errorf("%s: sha256 %s, want %s", d.what, got, d.want)
		}
	}
}

// statDigests splits a stat JSON export into its sim.kernel.* series and
// the rest, and returns the SHA-256 of each, re-encoded compactly with
// sorted keys.
func statDigests(t *testing.T, path string) (kernel, model string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc, series map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if err := json.Unmarshal(doc["series"], &series); err != nil {
		t.Fatalf("%s: series: %v", path, err)
	}
	kern := make(map[string]json.RawMessage)
	for name, s := range series {
		if strings.HasPrefix(name, "sim.kernel.") {
			kern[name] = s
			delete(series, name)
		}
	}
	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return b
	}
	doc["series"] = encode(series)
	return sha256Hex(encode(kern)), sha256Hex(encode(doc))
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestUsageErrors: what cannot run says so instead of running something
// else.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"run", "T99"},
		{"trace", "T2", "-point", "28"},
		{"trace", "T15", "-point", "-2"},
		{"stat", "T99", "-point", "0"},
		{"stat", "T1"},
		{"list", "T99"},
		{"stat", "T16", "-interval", "0s"},
		{"run", "T9", "extra"},
	} {
		if err := mpio(args, new(bytes.Buffer)); err == nil {
			t.Errorf("mpio %q succeeded", args)
		}
	}
}
