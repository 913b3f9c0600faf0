package mpiio

import (
	"encoding/binary"

	"dafsio/internal/mpi"
	"dafsio/internal/sim"
)

// The file service: rank 0 of a collectively opened file hosts the state
// its ranks share — the shared file pointer (shared.go) and the atomic-mode
// lock (atomic.go) — in one daemon reached by MPI messages on the file's
// own communicator. ROMIO used a hidden file plus fcntl locks for the same
// jobs; a message service is the natural equivalent on a SAN, and its
// traffic costs real MPI messages, so shared-pointer and atomic-mode
// overheads show in measurements.
//
// Requests of every kind travel on one tag. Pointer replies and lock grants
// come back on two more: a rank's helper proc waiting for a grant (an
// IwriteAt or a split collective in atomic mode) must not consume its main
// proc's pointer reply. The tags are constants: only the file's
// collectives share its communicator, on tags of their own. Open starts
// the service and rank 0's Close stops it, so it lives exactly as long as
// the file. A serial file keeps both pieces of state in the File.

// file-service request ops.
const (
	svcFetchAdd uint8 = iota // pointer += val; reply the old pointer
	svcSet                   // pointer = val; reply the old pointer
	svcAcquire               // grant the lock now, or once it is released
	svcRelease
	svcStop
)

// The file service's tags on the file's communicator.
const (
	svcReqTag = iota
	svcPtrTag
	svcGrantTag
)

// serial reports whether f has no file service: it was opened without a
// rank, or in a world of one.
func (f *File) serial() bool { return f.rank == nil || f.rank.Size() == 1 }

// serve is rank 0's daemon, which Open starts: it answers requests until
// svcStop.
func (f *File) serve(sp *sim.Proc) {
	c := &f.comm
	var ptr int64
	held := false
	var queue []int
	grant := []byte{1}
	var buf [9]byte
	for {
		st := c.Recv(sp, mpi.AnySource, svcReqTag, buf[:])
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
			c.Send(sp, st.Source, svcPtrTag, out[:])
		case svcAcquire:
			if held {
				queue = append(queue, st.Source)
				continue
			}
			held = true
			c.Send(sp, st.Source, svcGrantTag, grant)
		case svcRelease:
			if len(queue) == 0 {
				held = false
				continue
			}
			next := queue[0]
			queue = queue[1:]
			c.Send(sp, next, svcGrantTag, grant)
		case svcStop:
			return
		}
	}
}

// stopService ends rank 0's daemon. Close calls it after its barrier, when
// no rank has a request left to make.
func (f *File) stopService(p *sim.Proc) {
	if !f.serial() && f.rank.ID() == 0 {
		f.comm.Send(p, 0, svcReqTag, []byte{svcStop})
	}
}

// spCall applies one pointer op (svcFetchAdd or svcSet) and returns the
// previous shared pointer.
func (f *File) spCall(p *sim.Proc, op uint8, val int64) int64 {
	if f.serial() {
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
	f.comm.Send(p, 0, svcReqTag, msg[:])
	var resp [8]byte
	f.comm.Recv(p, 0, svcPtrTag, resp[:])
	return int64(binary.LittleEndian.Uint64(resp[:]))
}

// lock acquires the file-wide lock when atomic mode is on. A serial file
// has nothing to arbitrate: its operations already serialize in the
// caller's program order.
func (f *File) lock(p *sim.Proc) {
	if !f.atomic || f.serial() {
		return
	}
	f.comm.Send(p, 0, svcReqTag, []byte{svcAcquire})
	var grant [1]byte
	f.comm.Recv(p, 0, svcGrantTag, grant[:])
}

// unlock releases the file-wide lock.
func (f *File) unlock(p *sim.Proc) {
	if f.atomic && !f.serial() {
		f.comm.Send(p, 0, svcReqTag, []byte{svcRelease})
	}
}
