package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// checkpointed 512 x 512 matrix (2MB) across 4 ranks
	// collective write: 22.845ms (91.8 MB/s aggregate)
	// collective read:  21.271ms (98.6 MB/s aggregate)
	// file verified row-major on the server; simulated time 45.074ms
}
