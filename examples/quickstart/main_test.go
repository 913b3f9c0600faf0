package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// wrote and verified 1048576 bytes (file size 1048576)
	// write: 11.571ms (90.6 MB/s)   read: 11.570ms (90.6 MB/s)
	// session ops: 6   direct bytes: 1048576 written, 1048576 read   inline bytes: 0
	// client CPU busy: 1.503ms   server CPU busy: 230.61us
	// simulated time elapsed: 23.594ms
}
