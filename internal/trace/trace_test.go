package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dafsio/internal/sim"
)

// TestNilTracer pins that a nil tracer is a complete no-op: instrumented
// code must be able to call every method unconditionally.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	id := tr.Begin("x", LayerVIA, "send", 0)
	if id != 0 {
		t.Errorf("nil Begin returned %d", id)
	}
	tr.End(id)
	tr.SetXID(id, 7)
	tr.Charge(id, CatWire, 10)
	if tr.Spans() != nil {
		t.Error("nil accessors not zero")
	}
	if tr.ComputeBreakdown().Roots != 0 {
		t.Error("nil breakdown not empty")
	}
	tr.HistTable()
	tr.BreakdownTable(0)
}

// record builds a little two-level trace: a root op [0,100] with a child
// [10,60] on another track, charges on both.
func record(t *testing.T) *Tracer {
	t.Helper()
	k := sim.NewKernel()
	tr := New(k)
	var root, child OpID
	k.Spawn("p", func(p *sim.Proc) {
		root = tr.Begin("client0", LayerMPIIO, "read", 0)
		p.Wait(10)
		child = tr.BeginTagged("server", LayerServer, "read", root, 42, 1)
		tr.Charge(root, CatClientCPU, 5)
		p.Wait(50)
		tr.Charge(child, CatServerCPU, 30)
		tr.End(child)
		p.Wait(40)
		tr.End(root)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSpanTree(t *testing.T) {
	tr := record(t)
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	root, child := spans[0], spans[1]
	if root.Start != 0 || root.End != 100 || root.Dur() != 100 {
		t.Errorf("root = [%v,%v]", root.Start, root.End)
	}
	if child.Parent != root.ID || child.Start != 10 || child.End != 60 {
		t.Errorf("child = %+v", child)
	}
	if child.XID != 42 || child.Server != 1 {
		t.Errorf("child tags = xid %d server %d", child.XID, child.Server)
	}
	// Double-End must not move the recorded end.
	tr.End(root.ID)
	if tr.Spans()[0].End != 100 {
		t.Error("double End moved the end time")
	}
}

func TestBreakdownRollup(t *testing.T) {
	tr := record(t)
	b := tr.ComputeBreakdown()
	if b.Roots != 1 || b.RootTime != 100 {
		t.Fatalf("roots=%d rootTime=%v", b.Roots, b.RootTime)
	}
	if b.Total[CatClientCPU] != 5 {
		t.Errorf("client-cpu = %v, want 5", b.Total[CatClientCPU])
	}
	if b.Total[CatServerCPU] != 30 {
		t.Errorf("server-cpu rolled up = %v, want 30", b.Total[CatServerCPU])
	}
	if b.Other != 100-5-30 {
		t.Errorf("other = %v, want 65", b.Other)
	}
	tbl := tr.BreakdownTable(0)
	out := tbl.String()
	for _, want := range []string{"client-cpu", "server-cpu", "queue-wait", "other", "root op time"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown table missing %q:\n%s", want, out)
		}
	}
}

func TestHistTable(t *testing.T) {
	tr := record(t)
	out := tr.HistTable().String()
	// Layer-major order: the mpiio row must precede the server row.
	mi, si := strings.Index(out, "mpiio"), strings.Index(out, "server")
	if mi < 0 || si < 0 || mi > si {
		t.Errorf("layer order wrong:\n%s", out)
	}
}

// TestWriteChromeValid pins that the export is valid JSON in the trace-event
// format, with one named track per span track and complete events carrying
// our args.
func TestWriteChromeValid(t *testing.T) {
	tr := record(t)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var meta, complete int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if e.Dur <= 0 || e.Cat == "" || e.Name == "" {
				t.Errorf("bad complete event: %+v", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if complete != 2 {
		t.Errorf("complete events = %d, want 2", complete)
	}
	if meta != 4 { // thread_name + thread_sort_index per track
		t.Errorf("metadata events = %d, want 4", meta)
	}
	// Determinism: a second export of the same tracer is byte-identical.
	var buf2 bytes.Buffer
	if err := tr.WriteChrome(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("two exports of the same trace differ")
	}
}

// TestOpenSpansSkipped: spans never ended are excluded from the export and
// breakdown rather than corrupting them.
func TestOpenSpansSkipped(t *testing.T) {
	k := sim.NewKernel()
	tr := New(k)
	k.Spawn("p", func(p *sim.Proc) {
		tr.Begin("a", LayerVIA, "send", 0) // never ended
		p.Wait(5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\"ph\":\"X\"") {
		t.Error("open span exported as complete event")
	}
	if b := tr.ComputeBreakdown(); b.Roots != 0 {
		t.Errorf("open span counted as root: %+v", b)
	}
}

func TestUsFormat(t *testing.T) {
	cases := []struct {
		ns   int64
		want string
	}{
		{0, "0"},
		{1000, "1"},
		{1500, "1.500"},
		{1, "0.001"},
		{123456789, "123456.789"},
		{-2500, "-2.500"},
	}
	for _, c := range cases {
		if got := us(c.ns); got != c.want {
			t.Errorf("us(%d) = %q, want %q", c.ns, got, c.want)
		}
	}
}
