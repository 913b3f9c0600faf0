// Checkpoint: collective checkpoint/restart of a block-decomposed matrix —
// the canonical MPI-IO workload the paper's introduction motivates.
//
// A 512x512 matrix of float64-sized elements is decomposed across a 2x2
// rank grid. Each rank owns one quadrant and describes it with a subarray
// datatype; MPI_File_write_at_all assembles the interleaved rows into one
// canonical row-major file using two-phase collective I/O over DAFS. The
// restart phase reads the quadrants back collectively and verifies every
// element.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"dafsio/internal/cluster"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

const (
	N        = 512 // matrix dimension
	elemSize = 8
	gridDim  = 2 // 2x2 rank grid
	nranks   = gridDim * gridDim
	subN     = N / gridDim
)

// element is the canonical value at matrix coordinate (r, c).
func element(r, c int) uint64 { return uint64(r)<<32 | uint64(c) }

func main() {
	c := cluster.New(cluster.Config{Clients: nranks, DAFS: true, MPI: true})

	var writeTime, readTime sim.Time
	err := c.SpawnClients(func(p *sim.Proc, i int) {
		rank := c.World.Rank(i)
		client, err := c.DialDAFS(p, i, nil)
		if err != nil {
			log.Fatalf("rank %d dial: %v", i, err)
		}
		f, err := mpiio.Open(p, rank, mpiio.NewDAFSDriver(client), "matrix.ckpt",
			mpiio.ModeRdWr|mpiio.ModeCreate, nil)
		if err != nil {
			log.Fatalf("rank %d open: %v", i, err)
		}

		// This rank's quadrant: rows [r0,r0+subN) x cols [c0,c0+subN).
		r0 := (i / gridDim) * subN
		c0 := (i % gridDim) * subN
		f.SetView(0, mpiio.Subarray2D(N, N, int64(r0), int64(c0), subN, subN, elemSize))

		// Local quadrant buffer, row-major.
		local := make([]byte, subN*subN*elemSize)
		for r := 0; r < subN; r++ {
			for col := 0; col < subN; col++ {
				off := (r*subN + col) * elemSize
				binary.LittleEndian.PutUint64(local[off:], element(r0+r, c0+col))
			}
		}

		// Checkpoint.
		rank.Barrier(p)
		start := p.Now()
		if n, err := f.WriteAtAll(p, 0, local); err != nil || n != len(local) {
			log.Fatalf("rank %d checkpoint: n=%d err=%v", i, n, err)
		}
		rank.Barrier(p)
		if i == 0 {
			writeTime = p.Now() - start
		}

		// Restart: collective read into a fresh buffer, then verify.
		restored := make([]byte, len(local))
		start = p.Now()
		if n, err := f.ReadAtAll(p, 0, restored); err != nil || n != len(restored) {
			log.Fatalf("rank %d restart: n=%d err=%v", i, n, err)
		}
		rank.Barrier(p)
		if i == 0 {
			readTime = p.Now() - start
		}
		for r := 0; r < subN; r++ {
			for col := 0; col < subN; col++ {
				off := (r*subN + col) * elemSize
				if got := binary.LittleEndian.Uint64(restored[off:]); got != element(r0+r, c0+col) {
					log.Fatalf("rank %d: element (%d,%d) corrupted: %x", i, r0+r, c0+col, got)
				}
			}
		}
		f.Close(p)
	})
	if err != nil {
		log.Fatalf("simulation: %v", err)
	}

	// The file on the server must be the canonical row-major matrix.
	file, err := c.Store.Lookup("matrix.ckpt")
	if err != nil {
		log.Fatal(err)
	}
	total := int64(N * N * elemSize)
	if file.Size() != total {
		log.Fatalf("checkpoint size %d, want %d", file.Size(), total)
	}
	elem := make([]byte, elemSize)
	for _, probe := range [][2]int{{0, 0}, {7, 500}, {300, 2}, {511, 511}} {
		off := int64(probe[0]*N+probe[1]) * elemSize
		file.ReadAt(elem, off)
		got := binary.LittleEndian.Uint64(elem)
		if got != element(probe[0], probe[1]) {
			log.Fatalf("file element (%d,%d) = %x, want %x", probe[0], probe[1], got, element(probe[0], probe[1]))
		}
	}

	fmt.Printf("checkpointed %d x %d matrix (%s) across %d ranks\n", N, N, stats.Size(total), nranks)
	fmt.Printf("collective write: %v (%.1f MB/s aggregate)\n", writeTime, stats.MBps(total, writeTime))
	fmt.Printf("collective read:  %v (%.1f MB/s aggregate)\n", readTime, stats.MBps(total, readTime))
	fmt.Printf("file verified row-major on the server; simulated time %v\n", c.K.Now())
}
