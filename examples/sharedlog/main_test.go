package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// 4 ranks x 8 rounds of variable-length records into one log
	//
	//   shared  : all 32 records intact, no overlaps  (637.23us)
	//   ordered : all 32 records intact, no overlaps  (795.39us)
	//   append  : all 32 records intact, no overlaps  (506.14us)
	//
	// shared = MPI_File_write_shared (pointer service arbitration)
	// ordered = MPI_File_write_ordered (rank-order collective)
	// append = DAFS atomic append (server picks the offset)
}
