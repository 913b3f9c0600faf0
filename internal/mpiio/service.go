package mpiio

import (
	"encoding/binary"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

// The file service: rank 0 of a collectively opened file hosts the state
// its ranks share — the shared file pointer (shared.go) and the atomic-mode
// lock (atomic.go) — in one daemon reached by MPI messages. ROMIO used a
// hidden file plus fcntl locks for the same jobs; a message service is the
// natural equivalent on a SAN, and its traffic costs real MPI messages, so
// shared-pointer and atomic-mode overheads show in measurements.
//
// Requests of every kind travel on one tag. Pointer replies and lock grants
// come back on two more: a rank's helper proc waiting for a grant (an
// IwriteAt or a split collective in atomic mode) must not consume its main
// proc's pointer reply. Open starts the service and rank 0's Close stops
// it, so it lives exactly as long as the file. A serial file keeps both
// pieces of state in the File.

// file-service request ops.
const (
	svcFetchAdd uint8 = iota // pointer += val; reply the old pointer
	svcSet                   // pointer = val; reply the old pointer
	svcAcquire               // grant the lock now, or once it is released
	svcRelease
	svcStop
)

// fileService is a rank's handle on its file's service: the three tags.
type fileService struct {
	reqTag, ptrTag, grantTag int
}

// startService sets up the file service. Every rank of a collective open
// calls it at the same point: rank 0 reserves the tags and runs the daemon.
func (f *File) startService(p *sim.Proc) {
	r := f.rank
	var base uint64
	if r.ID() == 0 {
		base = uint64(r.World().ReserveTags(3))
	}
	base = r.BcastU64(p, 0, base)
	s := &fileService{reqTag: int(base), ptrTag: int(base + 1), grantTag: int(base + 2)}
	f.svc = s
	if r.ID() == 0 {
		r.World().Kernel().SpawnDaemon(f.name+".svc", func(sp *sim.Proc) { s.serve(sp, r) })
	}
}

// serve is rank 0's daemon: it answers requests until svcStop.
func (s *fileService) serve(sp *sim.Proc, r *mpi.Rank) {
	var ptr int64
	held := false
	var queue []int
	grant := []byte{1}
	var buf [9]byte
	for {
		st := r.Recv(sp, mpi.AnySource, s.reqTag, buf[:])
		switch op := buf[0]; op {
		case svcFetchAdd, svcSet:
			old := ptr
			val := int64(binary.LittleEndian.Uint64(buf[1:]))
			if op == svcFetchAdd {
				ptr += val
			} else {
				ptr = val
			}
			var out [8]byte
			binary.LittleEndian.PutUint64(out[:], uint64(old))
			r.Send(sp, st.Source, s.ptrTag, out[:])
		case svcAcquire:
			if held {
				queue = append(queue, st.Source)
				continue
			}
			held = true
			r.Send(sp, st.Source, s.grantTag, grant)
		case svcRelease:
			if len(queue) == 0 {
				held = false
				continue
			}
			next := queue[0]
			queue = queue[1:]
			r.Send(sp, next, s.grantTag, grant)
		case svcStop:
			return
		}
	}
}

// stopService ends rank 0's daemon. Close calls it after its barrier, when
// no rank has a request left to make.
func (f *File) stopService(p *sim.Proc) {
	if f.svc != nil && f.rank.ID() == 0 {
		f.rank.Send(p, 0, f.svc.reqTag, []byte{svcStop})
	}
}

// spCall applies one pointer op (svcFetchAdd or svcSet) and returns the
// previous shared pointer.
func (f *File) spCall(p *sim.Proc, op uint8, val int64) int64 {
	if f.svc == nil {
		old := f.sharedPtr
		if op == svcFetchAdd {
			f.sharedPtr += val
		} else {
			f.sharedPtr = val
		}
		return old
	}
	var msg [9]byte
	msg[0] = op
	binary.LittleEndian.PutUint64(msg[1:], uint64(val))
	f.rank.Send(p, 0, f.svc.reqTag, msg[:])
	var resp [8]byte
	f.rank.Recv(p, 0, f.svc.ptrTag, resp[:])
	return int64(binary.LittleEndian.Uint64(resp[:]))
}

// lock acquires the file-wide lock when atomic mode is on. A serial file
// has nothing to arbitrate: its operations already serialize in the
// caller's program order.
func (f *File) lock(p *sim.Proc) {
	if !f.atomic || f.svc == nil {
		return
	}
	f.rank.Send(p, 0, f.svc.reqTag, []byte{svcAcquire})
	var grant [1]byte
	f.rank.Recv(p, 0, f.svc.grantTag, grant[:])
}

// unlock releases the file-wide lock.
func (f *File) unlock(p *sim.Proc) {
	if f.atomic && f.svc != nil {
		f.rank.Send(p, 0, f.svc.reqTag, []byte{svcRelease})
	}
}
