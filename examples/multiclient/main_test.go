package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOutput runs the striped, replicated configuration with a server
// crash and compares stdout byte for byte with testdata. The simulation is
// deterministic, so a change to any layer's timing or the failover path
// shows here. (An Example cannot pin this output: its Output block folds
// the blank lines around the table.)
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/kill.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, args := os.Stdout, os.Args
	os.Stdout = w
	os.Args = []string{"multiclient", "-servers", "4", "-replicas", "2", "-kill", "server1@10ms"}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // ends when w closes below
		out <- b
	}()
	main()
	w.Close()
	os.Stdout, os.Args = stdout, args
	if got := <-out; !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/kill.txt:\n%s", got)
	}
}
