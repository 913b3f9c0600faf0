package mpiio

import (
	"fmt"
	"testing"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

// TestFileServiceLifetime: each collectively opened file runs one service
// proc, from Open to Close. Against a run that opens nothing, k open files
// leave k more live procs, and k closed files none.
func TestFileServiceLifetime(t *testing.T) {
	live := func(k int, closeAll bool) int {
		c := runWorld(t, 3, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
			for i := 0; i < k; i++ {
				f, err := Open(p, r, drv, fmt.Sprintf("f%d", i), ModeRdWr|ModeCreate, nil)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if closeAll {
					if err := f.Close(p); err != nil {
						t.Errorf("close: %v", err)
					}
				}
			}
		})
		defer c.K.Shutdown()
		return c.K.Live()
	}
	const k = 3
	base := live(0, false)
	if got := live(k, false) - base; got != k {
		t.Errorf("%d files open: %d more live procs, want %d", k, got, k)
	}
	if got := live(k, true) - base; got != 0 {
		t.Errorf("%d files closed: %d more live procs, want 0", k, got)
	}
}

// TestWildcardSkipsFileService: the file service runs on the file's own
// communicator, so a receive of (AnySource, AnyTag) that rank 0 posts on
// the world communicator while rank 1 makes shared-pointer requests takes
// none of them, and gets rank 1's tag-7 message.
func TestWildcardSkipsFileService(t *testing.T) {
	runWorld(t, 2, false, func(p *sim.Proc, r *mpi.Rank, drv Driver) {
		f, err := Open(p, r, drv, "wild", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if r.ID() == 0 {
			buf := make([]byte, 5)
			if st := r.Recv(p, mpi.AnySource, mpi.AnyTag, buf); st.Source != 1 || st.Tag != 7 || string(buf[:st.Count]) != "hello" {
				t.Errorf("wildcard receive got %+v %q, want rank 1's tag-7 hello", st, buf[:st.Count])
			}
		} else {
			for i := range 3 {
				if n, err := f.WriteShared(p, []byte("abcd")); n != 4 || err != nil {
					t.Errorf("shared write %d: n=%d err=%v", i, n, err)
				}
			}
			r.Send(p, 0, 7, []byte("hello"))
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}
