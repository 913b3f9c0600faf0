// Command mpiolint runs the repository's invariant suite — custom static
// analyses the compiler cannot perform — over the packages named on the
// command line (typically ./...).
//
//	go run ./cmd/mpiolint ./...
//
// Passes (each documented in internal/analysis/<name>):
//
//	simtime   no wall-clock time inside the simulated stack
//	detrand   no unseeded/global randomness or order-sensitive map
//	          iteration in result-producing code
//	errwrap   protocol-layer errors wrap package sentinels (%w)
//	reach     every non-test function is reached from a main, init,
//	          package var or kept declaration (module call graph)
//
// Each pass is kept because it is the only gate that catches some seeded
// bug (DESIGN.md §7). Two invariants are not linted but checked at run
// time: the VIA NIC rejects a descriptor whose region is not the one it
// registered, and the simulator fails a run in which a proc parks while
// it holds a sim.Resource.
//
// A finding that is correct by design is suppressed at the site with
// `//mpiolint:ignore <pass> <justification>`; the justification is
// mandatory and recorded in the source. For reach, the directive is the
// keep-list: written as the last line of a function's doc comment, it
// keeps the function and everything it calls.
//
// Exit status is 1 when any diagnostic is reported, 2 on usage or load
// errors, matching `go vet`.
package main

import (
	"flag"
	"fmt"
	"os"

	"dafsio/internal/analysis"
	"dafsio/internal/analysis/detrand"
	"dafsio/internal/analysis/errwrap"
	"dafsio/internal/analysis/reach"
	"dafsio/internal/analysis/simtime"
)

var suite = []*analysis.Analyzer{
	simtime.Analyzer,
	detrand.Analyzer,
	errwrap.Analyzer,
	reach.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mpiolint [-list] packages...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-8s %s\n", a.Name, a.Doc)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	ld := analysis.NewLoader("")
	pkgs, err := ld.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpiolint:", err)
		os.Exit(2)
	}
	diags, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpiolint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(analysis.Format(ld.Fset(), d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mpiolint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}
