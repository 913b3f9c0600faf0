package main

// Example runs the program and pins its output: the simulation is
// deterministic, so a change to any layer's timing or data path shows here.
func Example() {
	main()
	// Output:
	// 4 ranks x 8 rounds of variable-length records into one log
	//
	//   shared  : all 32 records intact, no overlaps  (637.08us)
	//   ordered : all 32 records intact, no overlaps  (759.67us)
	//   append  : all 32 records intact, no overlaps  (508.97us)
	//
	// shared = MPI_File_write_shared (pointer service arbitration)
	// ordered = MPI_File_write_ordered (rank-order collective)
	// append = DAFS atomic append (server picks the offset)
}
