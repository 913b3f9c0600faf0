// Package a has one function for each way the reach pass keeps a
// function, and one function that nothing keeps.
package a

import (
	"fmt"
	"sort"

	"dafsio/internal/sim"
)

type server struct{ served int }

// worker is reached only as a method value handed to Spawn.
func (s *server) worker(p *sim.Proc) { s.served++ }

// later is reached only inside an asynchronous literal.
func later() {}

// fromTable is reached only from a package var initializer.
func fromTable() {}

var table = []func(){fromTable}

type shape interface{ area() int }

type square struct{ side int }

// area is reached only through interface dispatch.
func (q square) area() int { return q.side * q.side }

// String is reached by no call: fmt calls it through fmt.Stringer.
func (q square) String() string { return fmt.Sprint(q.side) }

func measure(s shape) int { return s.area() }

// byLen is sorted by sort.Sort, which calls its methods through
// sort.Interface, an interface declared outside the module.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func init() {
	k := sim.NewKernel()
	s := &server{}
	k.Spawn("worker", s.worker)
	k.After(1, func() { later() })
	_ = measure(square{2})
	sort.Sort(byLen{"bb", "a"})
}

// kept is called by no program.
//
//mpiolint:ignore reach test oracle: the fixture's kept declaration
func kept() { keptHelper() }

// keptHelper is reached only from a marked function.
func keptHelper() {}

func dead() {} // want `dead is reached from no main, init, package var or kept declaration`
