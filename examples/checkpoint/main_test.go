package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// checkpointed 512 x 512 matrix (2MB) across 4 ranks
	// collective write: 23.613ms (88.8 MB/s aggregate)
	// collective read:  22.056ms (95.1 MB/s aggregate)
	// file verified row-major on the server; simulated time 46.646ms
}
