package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// checkpointed 512 x 512 matrix (2MB) across 4 ranks
	// collective write: 23.594ms (88.9 MB/s aggregate)
	// collective read:  22.027ms (95.2 MB/s aggregate)
	// file verified row-major on the server; simulated time 46.578ms
}
