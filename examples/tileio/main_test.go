package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// tile reads: 16 frames of 256x256 x 32B pixels, 4 ranks, 2MB per frame
	//   independent list I/O  :   152.9 MB/s
	//   independent batch I/O :   152.5 MB/s
	//   independent + sieving :    72.1 MB/s
	//   collective two-phase  :    86.2 MB/s
	// all pixels verified on every rank
}
