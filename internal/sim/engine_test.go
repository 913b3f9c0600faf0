package sim

import (
	"fmt"
	"strings"
	"testing"
)

// engineScenario runs one script as the subject of a small contended
// run: "holder" keeps the resource until t=10, "producer" sends on in at
// t=5 and t=25, and "consumer" drains the bounded out from t=30. The
// subject runs as a blocking proc or, when asEngine, as an engine making
// the same primitive calls through the non-blocking forms. Every actor
// logs (time, events dispatched, what happened); the log and the
// kernel's event count come back.
func engineScenario(t *testing.T, asEngine bool) ([]string, uint64) {
	t.Helper()
	k := NewKernel()
	res := NewResource(k, 1)
	in := NewChan[int](k, 0)
	out := NewChan[int](k, 1)
	var log []string
	logf := func(format string, a ...any) {
		log = append(log, fmt.Sprintf("%v #%d ", k.Now(), k.Events())+fmt.Sprintf(format, a...))
	}
	k.Spawn("holder", func(p *Proc) {
		res.Use(p, 1, 10)
		logf("holder released")
	})
	k.Spawn("producer", func(p *Proc) {
		p.Wait(5)
		in.Send(p, 1)
		p.Wait(20)
		in.Send(p, 2)
		logf("producer done")
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Wait(30)
		for range 2 {
			v, _ := out.Recv(p)
			logf("consumer got %d", v)
			p.Wait(2)
		}
	})
	if !asEngine {
		k.Spawn("subject", func(p *Proc) {
			p.Wait(3)
			v, _ := in.Recv(p) // empty until t=5
			logf("subject got %d", v)
			res.UseFunc(p, 1, func() Time { // held by holder until t=10
				logf("subject granted")
				return 4
			})
			out.Send(p, 10)
			out.Send(p, 11) // full until the consumer takes 10 at t=30
			logf("subject sent")
			v, _ = in.Recv(p)
			logf("subject got %d", v)
		})
	} else {
		phase := 0
		k.SpawnEngine("subject", func(p *Proc) {
			for {
				switch phase {
				case 0:
					phase = 1
					p.Sleep(3)
					return
				case 1:
					v, ok := in.Poll(p)
					if !ok {
						return
					}
					logf("subject got %d", v)
					phase = 2
					if !res.Claim(p, 1) {
						return
					}
					fallthrough
				case 2:
					logf("subject granted")
					phase = 3
					p.Sleep(4)
					return
				case 3:
					res.Release(1)
					out.Offer(p, 10) // room: the channel is empty
					phase = 4
					fallthrough
				case 4:
					if !out.Offer(p, 11) {
						return
					}
					logf("subject sent")
					phase = 5
				case 5:
					v, ok := in.Poll(p)
					if !ok {
						return
					}
					logf("subject got %d", v)
					return // arranges nothing: the engine ends
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if k.Live() != 0 {
		t.Errorf("engine=%v: %d procs live after the run", asEngine, k.Live())
	}
	return log, k.Events()
}

// TestEngineMatchesProc: a script run as an engine dispatches exactly the
// events, at exactly the instants, that it does as a blocking proc.
func TestEngineMatchesProc(t *testing.T) {
	procLog, procEvents := engineScenario(t, false)
	engLog, engEvents := engineScenario(t, true)
	if procEvents != engEvents {
		t.Errorf("events: proc %d, engine %d", procEvents, engEvents)
	}
	if strings.Join(procLog, "\n") != strings.Join(engLog, "\n") {
		t.Errorf("dispatch trace differs\nproc:\n%s\nengine:\n%s",
			strings.Join(procLog, "\n"), strings.Join(engLog, "\n"))
	}
	if len(procLog) != 8 {
		t.Errorf("trace has %d entries, want 8:\n%s", len(procLog), strings.Join(procLog, "\n"))
	}
}

// An engine step that blocks, or that panics, ends Run with an error
// naming the engine.
func TestEngineBlockingOrPanicIsAnError(t *testing.T) {
	for name, step := range map[string]func(ch *Chan[int]) func(p *Proc){
		"waits":    func(*Chan[int]) func(p *Proc) { return func(p *Proc) { p.Wait(1) } },
		"receives": func(ch *Chan[int]) func(p *Proc) { return func(p *Proc) { ch.Recv(p) } },
		"panics":   func(*Chan[int]) func(p *Proc) { return func(p *Proc) { panic("boom") } },
	} {
		k := NewKernel()
		k.SpawnEngine("eng-"+name, step(NewChan[int](k, 0)))
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), `engine "eng-`+name+`"`) {
			t.Errorf("engine that %s: Run = %v, want an error naming it", name, err)
		}
	}
}

// Engines hold no goroutine, and Shutdown skips them: it reclaims the
// daemon's worker and leaves the parked engine's record alone.
func TestShutdownSkipsEngines(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	steps := 0
	k.SpawnEngine("eng", func(p *Proc) {
		steps++
		ch.Poll(p) // never sent to: enlisted for good
	})
	k.SpawnDaemon("daemon", func(p *Proc) { ch.Recv(p) })
	if k.Goroutines() != 0 {
		t.Fatalf("%d goroutines before the run", k.Goroutines())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 1 || k.Live() != 2 {
		t.Fatalf("after the run: %d engine steps, %d live", steps, k.Live())
	}
	if k.Goroutines() != 1 {
		t.Fatalf("%d goroutines after the run, want the daemon's 1", k.Goroutines())
	}
	k.Shutdown()
	if k.Goroutines() != 0 || steps != 1 {
		t.Fatalf("after Shutdown: %d goroutines, %d engine steps", k.Goroutines(), steps)
	}
}
