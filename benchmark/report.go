package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// environment is recorded with every result file: host numbers compare only
// between files whose environment matches.
type environment struct {
	NProc      int    `json:"nproc"`      // CPUs the host offers
	GoMaxProcs int    `json:"gomaxprocs"` // fixed at 2, in the driver and in every child
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"` // git HEAD of the working directory (+dirty with uncommitted changes), "unknown" outside a repository
	Seed       int64  `json:"seed"`
	Scale      int    `json:"scale"` // volume divisor: 1, or 16 under -short
}

// metricValue is one end-to-end metric of one workload over the reps.
type metricValue struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"` // one per rep, in run order
}

// layerValue is one per-layer metric of one workload's traced run.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type workloadResult struct {
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Samples   map[string]int         `json:"samples,omitempty"` // latency samples behind the percentiles, per rep
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]layerValue  `json:"per_layer,omitempty"`
	Errors    []string               `json:"errors,omitempty"`

	walls, rates []float64 // sim.host_wall_s and sim.events_per_host_s of the untraced reps
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Ladder    map[string]float64         `json:"ladder,omitempty"`      // rung spans, simulated us
	Self      map[string]float64         `json:"ladder_self,omitempty"` // rung self times, simulated us

	spans []span
}

func newResultFile(d *driver) *resultFile {
	env := environment{
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Seed: d.seed, Scale: 1,
	}
	if d.short {
		env.Scale = shortScale
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			env.Commit += "+dirty" // uncommitted changes on top of HEAD
		}
	}
	return &resultFile{Env: env, Workloads: map[string]*workloadResult{}}
}

func (rf *resultFile) workload(name string) *workloadResult {
	wr := rf.Workloads[name]
	if wr == nil {
		wr = &workloadResult{}
		rf.Workloads[name] = wr
	}
	return wr
}

// fail records a gate violation, naming the workload and what broke.
func (rf *resultFile) fail(workload, msg string) {
	wr := rf.workload(workload)
	wr.Errors = append(wr.Errors, msg)
}

// checkOps turns failed calls into a gate violation.
func (rf *resultFile) checkOps(r *repResult) bool {
	if r.Failed == 0 {
		return true
	}
	rf.fail(r.Workload, fmt.Sprintf("failed_ops_share: %d of %d calls failed (%d read-back mismatches); first: %s",
		r.Failed, r.Attempted, r.Mismatch, r.FirstErr))
	return false
}

// sameSim checks that b's simulated metrics equal a's exactly.
func (rf *resultFile) sameSim(a, b *repResult, what string) bool {
	ok := true
	for _, name := range sortedKeys(a.Sim) {
		if a.Sim[name] != b.Sim[name] {
			rf.fail(a.Workload, fmt.Sprintf("%s: simulated metric differs %s: %v vs %v", name, what, a.Sim[name], b.Sim[name]))
			ok = false
		}
	}
	return ok
}

// addEndToEnd folds a workload's untraced reps: host metrics keep every
// rep's value and report the median and quartiles; simulated metrics must be
// identical across the reps. setups are the set-up times of the reps and of
// the children that only set up.
func (rf *resultFile) addEndToEnd(w *workload, runs []*repResult, setups []float64) bool {
	wr := rf.workload(w.name)
	wr.EndToEnd = map[string]metricValue{}
	wr.Samples = runs[0].Samples
	wr.Attempted, wr.Failed = 0, 0
	ok := true
	for i, r := range runs {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		ok = rf.checkOps(r) && ok
		wr.walls = append(wr.walls, r.Layer["sim.host_wall_s"])
		wr.rates = append(wr.rates, r.Layer["sim.events_per_host_s"])
		if i > 0 {
			ok = rf.sameSim(runs[0], r, fmt.Sprintf("between rep 1 and rep %d", i+1)) && ok
		}
	}
	for _, def := range endToEnd {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			if def.sim {
				vals[i] = r.Sim[def.name]
			} else {
				vals[i] = r.Host[def.name]
			}
		}
		if def.name == "setup_s" {
			vals = setups
		}
		q1, med, q3 := quartiles(vals)
		wr.EndToEnd[def.name] = metricValue{Unit: def.unit, Better: better(def.higher), Median: med, Q1: q1, Q3: q3, Values: vals}
		if med == 0 || math.IsNaN(med) || math.IsInf(med, 0) {
			rf.fail(w.name, fmt.Sprintf("%s: no value", def.name))
			ok = false
		}
	}
	return ok
}

// addLadder records the rung spans and checks that no rung is cheaper than
// the rung beneath it.
func (rf *resultFile) addLadder(ladder *repResult) bool {
	rf.Ladder = ladder.Rungs
	rf.spans = append(rf.spans, ladder.Spans...)
	self, err := selfTimes(ladder.Rungs)
	rf.Self = self
	if err != nil {
		rf.fail("ladder", err.Error())
		return false
	}
	return true
}

// addTraced folds a workload's traced run: the per-layer metrics come from
// the traced child, the ladder and, for what tracing itself would disturb,
// the untraced child beside it.
func (rf *resultFile) addTraced(w *workload, plain, traced, ladder *repResult) bool {
	wr := rf.workload(w.name)
	if wr.EndToEnd == nil {
		wr.Attempted, wr.Failed, wr.Samples = traced.Attempted, traced.Failed, traced.Samples
	}
	ok := rf.checkOps(plain)
	ok = rf.checkOps(traced) && ok
	ok = rf.sameSim(plain, traced, "between the untraced and the traced run") && ok

	vals := map[string]float64{}
	for k, v := range ladder.Layer {
		vals[k] = v
	}
	for k, v := range traced.Layer {
		vals[k] = v
	}
	// Tracing and sampling add kernel events and live objects of their own.
	for _, k := range []string{"sim.events", "sim.goroutines_after_run", "sim.live_heap_MB_after_run"} {
		vals[k] = plain.Layer[k]
	}
	// The run's two host times: the median of every untraced child there is.
	vals["sim.host_wall_s"] = median(append(wr.walls, plain.Layer["sim.host_wall_s"]))
	vals["sim.events_per_host_s"] = median(append(wr.rates, plain.Layer["sim.events_per_host_s"]))
	hostOf := func(r *repResult) float64 { return r.Host["setup_s"] + r.Layer["sim.host_wall_s"] }
	vals["trace.overhead_share"] = hostOf(traced)/hostOf(plain) - 1

	wr.PerLayer = map[string]layerValue{}
	for _, def := range perLayer {
		wr.PerLayer[def.name] = layerValue{Value: vals[def.name], Unit: def.unit}
	}
	rf.spans = append(rf.spans, traced.Spans...)

	// The ladder's top rung is the same call the sequential workloads time:
	// the two must agree.
	top := map[string]string{"seq_dafs": "mpiio", "seq_nfs": "mpiio-nfs"}[w.name]
	if top != "" && rf.Env.Scale == 1 {
		agree := func(what string, ladderV, workloadV float64) {
			if math.Abs(ladderV-workloadV) > 0.01*workloadV {
				rf.fail(w.name, fmt.Sprintf("ladder top rung disagrees with %s: %v vs %v", what, ladderV, workloadV))
				ok = false
			}
		}
		agree("sim_write_op_p50_us", ladder.Rungs[rungKey(top, "write", "4K")], plain.Sim["sim_write_op_p50_us"])
		agree("mpiio.write_MBps_1M", maxReq/ladder.Rungs[rungKey(top, "write", "1M")], plain.Layer["mpiio.write_MBps_1M"])
	}
	return ok
}

// print writes every metric by name and unit, workload by workload.
func (rf *resultFile) print(w io.Writer) {
	e := rf.Env
	fmt.Fprintf(w, "# env: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d scale=1/%d\n", e.NProc, e.GoMaxProcs, e.GoVersion, e.Commit, e.Seed, e.Scale)
	for _, wl := range workloads {
		wr := rf.Workloads[wl.name]
		if wr == nil {
			continue
		}
		share := 0.0
		if wr.Attempted > 0 {
			share = float64(wr.Failed) / float64(wr.Attempted)
		}
		fmt.Fprintf(w, "\n== %s: %d calls attempted, %d failed (failed_ops_share %g), read-back verified; latency samples per rep: %d writes, %d reads\n",
			wl.name, wr.Attempted, wr.Failed, share, wr.Samples["write_op"], wr.Samples["read_op"])
		for _, def := range endToEnd {
			if mv, ok := wr.EndToEnd[def.name]; ok {
				fmt.Fprintf(w, "%-14s %-40s %14.6g %-10s q1 %.6g q3 %.6g n=%d\n", wl.name, def.name, mv.Median, mv.Unit, mv.Q1, mv.Q3, len(mv.Values))
			}
		}
		for _, def := range perLayer {
			if lv, ok := wr.PerLayer[def.name]; ok {
				fmt.Fprintf(w, "%-14s %-40s %14.6g %s\n", wl.name, def.name, lv.Value, lv.Unit)
			}
		}
		for _, msg := range wr.Errors {
			fmt.Fprintf(w, "%-14s FAILED %s\n", wl.name, msg)
		}
	}
	if len(rf.Ladder) > 0 {
		fmt.Fprintf(w, "\n== ladder: simulated us per warm call, span and self time (span minus the rung beneath)\n")
		for _, side := range ladderSides {
			for _, dir := range dirs {
				for _, sh := range shapes {
					for _, rung := range side {
						k := rungKey(rung, dir, sh.label)
						fmt.Fprintf(w, "%-14s %-40s %14.6g sim_us     self %.6g\n", "ladder", k, rf.Ladder[k], rf.Self[k])
					}
				}
			}
		}
		if wr := rf.Workloads["ladder"]; wr != nil {
			for _, msg := range wr.Errors {
				fmt.Fprintf(w, "%-14s FAILED %s\n", "ladder", msg)
			}
		}
	}
}

// write stores results.json and, when a traced run recorded any, spans.json.
func (rf *resultFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "results.json"), rf); err != nil {
		return err
	}
	if len(rf.spans) == 0 {
		return nil
	}
	return writeJSON(filepath.Join(dir, "spans.json"), rf.spans)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine is the one-workload result in the form the driver reads.
func (rf *resultFile) contractLine(name string, traced, ok bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	wr := rf.workload(name)
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: ok, Attempted: max(wr.Attempted, 1), Failed: wr.Failed, Metrics: map[string]mv{}}
	if traced {
		for k, v := range wr.PerLayer {
			line.Metrics[k] = mv{v.Value, v.Unit}
		}
	} else {
		for _, def := range endToEnd {
			if v, ok := wr.EndToEnd[def.name]; ok {
				line.Metrics[def.name] = mv{v.Median, v.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in this file
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
