// Fixture for the detrand analyzer: global randomness and order-sensitive
// map iteration are forbidden; seeded generators and sorted iteration are
// the sanctioned idioms.
package a

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dafsio/internal/sim"
)

func badGlobal() int {
	rand.Seed(42)         // want `unseeded global rand\.Seed`
	_ = rand.Float64()    // want `unseeded global rand\.Float64`
	rand.Shuffle(3, swap) // want `unseeded global rand\.Shuffle`
	return rand.Intn(10)  // want `unseeded global rand\.Intn`
}

func swap(i, j int) {}

func badCrypto(buf []byte) {
	_, _ = crand.Read(buf) // want `crypto/rand\.Read in result-producing code`
}

func badMapPrint(m map[string]int) {
	for k, v := range m { // want `map iteration feeds fmt\.Println`
		fmt.Println(k, v)
	}
}

func badMapBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `map iteration writes output via strings\.WriteString`
		b.WriteString(k)
	}
	return b.String()
}

func badMapSched(m map[int]*sim.Future[int]) {
	for x, f := range m { // want `map iteration calls sim\.Future\.Set`
		f.Set(x)
	}
}

func badMapRecv(p *sim.Proc, m map[int]*sim.Chan[int]) {
	for _, c := range m { // want `map iteration calls sim\.Chan\.Recv`
		_, _ = c.Recv(p)
	}
}

func badMapAcquire(p *sim.Proc, m map[string]*sim.Credits) {
	for _, c := range m { // want `map iteration calls sim\.Credits\.Acquire`
		c.Acquire(p, 1)
	}
}

func goodMapReader(m map[int]*sim.Future[int]) int {
	n := 0
	for _, f := range m { // Future.Done is a pure reader: allowed
		if f.Done() {
			n++
		}
	}
	return n
}

func goodSeeded() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(10)
}

func goodSorted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m { // collecting keys has no ordered effect: allowed
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

func goodSliceRange(xs []int) {
	for _, x := range xs { // slice order is deterministic: allowed
		fmt.Println(x)
	}
}
