package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}, {0, 1}, {0.01, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 256 samples leave 12 beyond p95: the smallest class the workloads use.
	big := make([]float64, 256)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 244 {
		t.Errorf("p95 of 1..256 = %v, want 244", got)
	}
}

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{3, 1}, 1.5, 2, 2.5},
		{[]float64{5, 1, 3, 2, 4}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	in := []float64{3, 1, 2}
	quartiles(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("quartiles reordered its input: %v", in)
	}
}

func TestBoundIsMaxOfRelativeAndFloor(t *testing.T) {
	def := metricDef{rel: 0.10, abs: 0.15}
	if got := def.bound(10); got != 1 {
		t.Errorf("bound(10) = %v, want the relative 1", got)
	}
	if got := def.bound(0.5); got != 0.15 {
		t.Errorf("bound(0.5) = %v, want the floor 0.15", got)
	}
	if got := (metricDef{rel: 0.001}).bound(200); got != 0.2 {
		t.Errorf("bound(200) = %v, want 0.2", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{rel: 0.10, abs: 0.15}
	higher := metricDef{rel: 0.10, higher: true}
	mv := func(vals ...float64) metricValue {
		q1, med, q3 := quartiles(vals)
		return metricValue{Median: med, Q1: q1, Q3: q3, Values: vals}
	}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b metricValue
		want verdict
	}{
		{"inside the bound", lower, mv(10, 10.1, 10.2), mv(10.3, 10.4, 10.5), verdictSame},
		{"worse beyond the bound", lower, mv(10, 10.1, 10.2), mv(11.5, 11.6, 11.7), verdictWorse},
		{"better beyond the bound", lower, mv(10, 10.1, 10.2), mv(8, 8.1, 8.2), verdictBetter},
		{"floor absorbs a short run's noise", lower, mv(0.5, 0.5, 0.5), mv(0.6, 0.6, 0.6), verdictSame},
		{"higher is better", higher, mv(100, 100, 100), mv(80, 80, 80), verdictWorse},
		{"spread wider than the bound", lower, mv(8, 10, 14), mv(9, 10.5, 13), verdictUnresolved},
		{"wide spread but every run better", lower, mv(10, 10.5, 14), mv(9.5, 9.7, 9.9), verdictBetter},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestCompareExitCode(t *testing.T) {
	file := func(setup float64, failed int64) *resultFile {
		rf := &resultFile{Env: environment{Seed: 1, Scale: 1}, Workloads: map[string]*workloadResult{}}
		rf.Workloads["seq_dafs"] = &workloadResult{
			Attempted: 100, Failed: failed,
			EndToEnd: map[string]metricValue{"setup_s": {Median: setup, Q1: setup, Q3: setup, Values: []float64{setup}}},
		}
		return rf
	}
	var out bytes.Buffer
	if code := compareResults(&out, file(2, 0), file(2.1, 0)); code != 0 {
		t.Errorf("same: exit %d\n%s", code, out.String())
	}
	if code := compareResults(&out, file(2, 0), file(3, 0)); code != 1 {
		t.Errorf("slower set-up: exit %d, want 1", code)
	}
	out.Reset()
	if code := compareResults(&out, file(2, 0), file(2, 1)); code != 1 || !strings.Contains(out.String(), "failed_ops_share") {
		t.Errorf("any increase in failed calls must be worse: exit %d\n%s", code, out.String())
	}

	// What the baseline has and the candidate lacks is worse, never skipped.
	crashed := file(2, 0)
	crashed.Workloads["seq_dafs"] = &workloadResult{Errors: []string{"seq_dafs: child: exit status 2"}}
	noWorkload := file(2, 0)
	delete(noWorkload.Workloads, "seq_dafs")
	noMetric := file(2, 0)
	delete(noMetric.Workloads["seq_dafs"].EndToEnd, "setup_s")
	failedGate := file(2, 0)
	failedGate.Workloads["seq_dafs"].Errors = []string{"sim_read_MBps: simulated metric differs"}
	for name, b := range map[string]*resultFile{"crashed child": crashed, "no workload": noWorkload, "no metric": noMetric, "failed gate": failedGate} {
		out.Reset()
		if code := compareResults(&out, file(2, 0), b); code != 1 || !strings.Contains(out.String(), "worse") {
			t.Errorf("%s: exit %d, want 1\n%s", name, code, out.String())
		}
	}
	// Another seed or volume is not comparable at all.
	otherSeed, short := file(2, 0), file(2, 0)
	otherSeed.Env.Seed, short.Env.Scale = 2, shortScale
	for name, b := range map[string]*resultFile{"seed": otherSeed, "scale": short} {
		if code := compareResults(&out, file(2, 0), b); code != 2 {
			t.Errorf("%s mismatch: exit %d, want 2", name, code)
		}
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	a, b, c := genInputs(7, 8), genInputs(7, 8), genInputs(8, 8)
	if !bytes.Equal(a.table, b.table) || !reflect.DeepEqual(a.perm, b.perm) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a.table, c.table) {
		t.Error("another seed gave the same payload")
	}
	// Position-dependent: stripes, 16MB blocks and neighbouring requests differ.
	base := a.payload(0, 4096)
	for _, x := range []int64{4096, 64 << 10, 1 << 24, 3 << 24} {
		if bytes.Equal(base, a.payload(x, 4096)) {
			t.Errorf("payload at %d repeats the payload at 0", x)
		}
	}
	// The strided buffer is the file's bytes at the view's positions.
	buf := a.stridedPayload(2*interleave, 0, 4*interleave, 4)
	for k := 0; k < 4; k++ {
		want := a.payload(int64(2*interleave+k*4*interleave), interleave)
		if !bytes.Equal(buf[k*interleave:(k+1)*interleave], want) {
			t.Errorf("strided block %d does not match the file position", k)
		}
	}
}

func TestLadderSubtraction(t *testing.T) {
	rungs := map[string]float64{}
	for _, side := range ladderSides {
		for _, dir := range dirs {
			for _, sh := range shapes {
				for i, rung := range side {
					rungs[rungKey(rung, dir, sh.label)] = float64(100 + 30*i)
				}
			}
		}
	}
	self, err := selfTimes(rungs)
	if err != nil {
		t.Fatal(err)
	}
	if self["via/write/4K"] != 100 || self["dafs/write/4K"] != 30 || self["mpiio/write/4K"] != 30 || self["nfs/read/1M"] != 30 {
		t.Errorf("self times: %v", self)
	}
	rungs["dafs/read/64K"] = 90 // cheaper than the via rung beneath it
	if _, err := selfTimes(rungs); err == nil || !strings.Contains(err.Error(), "dafs/read/64K") {
		t.Errorf("negative self time not reported: %v", err)
	}
}

func TestResultRoundTrip(t *testing.T) {
	rf := &resultFile{
		Env: environment{NProc: 2, GoMaxProcs: 2, GoVersion: "go1.24.0", Commit: "abc", Seed: 1, Scale: 1},
		Workloads: map[string]*workloadResult{"seq_dafs": {
			Attempted: 10, Samples: map[string]int{"write_op": 5},
			EndToEnd: map[string]metricValue{"setup_s": {Unit: "s", Better: "lower", Median: 0.1234567890123, Q1: 0.1, Q3: 0.2, Values: []float64{0.1, 0.1234567890123, 0.2}}},
			PerLayer: map[string]layerValue{"via.sends": {Value: 8736, Unit: "count"}},
		}},
		Ladder: map[string]float64{"via/write/4K": 100.328},
		Self:   map[string]float64{"via/write/4K": 100.328},
		spans:  []span{{ID: 1, Name: "x", Layer: "via", SimEnd: 5, HostEnd: 7}},
	}
	dir := t.TempDir()
	if err := rf.write(dir); err != nil {
		t.Fatal(err)
	}
	got, err := readResults(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	rf.spans = nil
	if !reflect.DeepEqual(rf, got) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", rf, got)
	}
	var spans []span
	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err == nil {
		err = json.Unmarshal(raw, &spans)
	}
	if err != nil || len(spans) != 1 || spans[0].SimEnd != 5 {
		t.Errorf("span file: %v %v", spans, err)
	}
}

// metricNames is the end-to-end list of one clock.
func metricNames(sim bool) []string {
	var names []string
	for _, d := range endToEnd {
		if d.sim == sim {
			names = append(names, d.name)
		}
	}
	return names
}

// TestSmokeAllWorkloads runs every workload at 1/16 volume in this process
// and checks that each verifies its read-back and reports exactly the
// metrics its row lists.
func TestSmokeAllWorkloads(t *testing.T) {
	passLayer := map[string][]string{
		"seq_dafs":     {"mpiio.write_MBps_4K", "mpiio.write_MBps_64K", "mpiio.write_MBps_1M", "mpiio.read_MBps_4K", "mpiio.read_MBps_64K", "mpiio.read_MBps_1M"},
		"strided_coll": {"mpiio.coll_write_MBps", "mpiio.coll_read_MBps", "mpiio.batch_write_MBps", "mpiio.batch_read_MBps", "mpiio.perseg_write_MBps", "mpiio.perseg_read_MBps", "mpiio.batch16K_write_MBps", "mpiio.batch16K_read_MBps", "mpiio.batch_segments", "aggregate.segments_per_server"},
		"failover_r2":  {"fault.recovery_ms"},
	}
	passLayer["seq_nfs"] = passLayer["seq_dafs"]
	defined := map[string]bool{}
	for _, d := range perLayer {
		defined[d.name] = true
	}
	for _, w := range workloads {
		r, err := runWorkload(w, runOpts{seed: 3, scale: shortScale})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d calls failed: %s", w.name, r.Failed, r.Attempted, r.FirstErr)
		}
		if got := sortedKeys(r.Sim); !reflect.DeepEqual(got, sorted(metricNames(true))) {
			t.Errorf("%s: simulated metrics %v", w.name, got)
		}
		if got := sortedKeys(r.Host); !reflect.DeepEqual(got, sorted(metricNames(false))) {
			t.Errorf("%s: host metrics %v", w.name, got)
		}
		for name, v := range r.Sim {
			if v <= 0 {
				t.Errorf("%s: %s = %v, an end-to-end metric is never 0", w.name, name, v)
			}
		}
		for name := range r.Layer {
			if !defined[name] {
				t.Errorf("%s: layer metric %s is not in the per-layer list", w.name, name)
			}
		}
		for _, name := range passLayer[w.name] {
			if r.Layer[name] <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, r.Layer[name])
			}
		}
		// Every workload has one latency class: at full volume 256 samples
		// or more, so 12 or more lie beyond p95.
		full := 0
		for _, ps := range w.passes {
			if ps.latency {
				full += w.clients * ps.calls
			}
		}
		if full < 256 || r.Samples["write_op"] == 0 || r.Samples["write_op"] != r.Samples["read_op"] {
			t.Errorf("%s: latency samples: %d at full volume, here %v", w.name, full, r.Samples)
		}
	}
}

// TestSetupOnly: a child that only sets up does the set-up of a full run,
// issues no timed call and reports setup_s alone.
func TestSetupOnly(t *testing.T) {
	w := findWorkload("strided_coll")
	r, err := runWorkload(w, runOpts{seed: 3, scale: shortScale, setupOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 0 || len(r.Host) != 1 || r.Host["setup_s"] <= 0 || len(r.Sim) != 0 {
		t.Errorf("attempted %d host %v sim %v", r.Attempted, r.Host, r.Sim)
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program in
// step: names, units, directions, bounds and workloads.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", spec.Paths, spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		m := spec.EndToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) || m.Bound != d.rel {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		m := spec.PerLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better(d.higher) {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, d)
		}
		if seen[d.name] {
			t.Errorf("%s listed twice", d.name)
		}
		seen[d.name] = true
	}
}
