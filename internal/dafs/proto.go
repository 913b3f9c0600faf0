// Package dafs implements the Direct Access File System protocol over VIA:
// a file-access protocol designed for user-level, RDMA-capable transports.
//
// Two transfer disciplines coexist, exactly as in the DAFS specification:
//
//   - Inline: request and response carry the data inside the message, which
//     costs a CPU copy at each end (into/out of the registered message
//     buffers) but only one round trip — best for small transfers.
//   - Direct: the client registers its buffer and passes the (handle,
//     offset) token in the request; the *server* moves the data with RDMA
//     read/write straight between its buffer cache and the client's memory.
//     The client CPU never touches the payload — best for bulk transfers.
//
// Sessions are credit-flow-controlled: the client may have at most
// `credits` outstanding requests, and both sides pre-post exactly that many
// receive descriptors, so the VIA receive queues can never underrun.
package dafs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Proc identifies a protocol operation.
type Proc uint16

// Protocol operations (a representative subset of the DAFS v1.0 operation
// set; names follow the spec's DAFS_PROC_* convention).
const (
	ProcConnect Proc = iota + 1
	ProcDisconnect
	ProcLookup
	ProcCreate
	ProcRemove
	ProcGetattr
	ProcSetattr
	ProcRead        // inline read
	ProcWrite       // inline write
	ProcReadDirect  // server RDMA-writes into client memory
	ProcWriteDirect // server RDMA-reads from client memory
	ProcAppend      // inline atomic append (DAFS shared-log op)
	ProcFsync
	ProcReadBatch  // scatter read: many (off,len) segments, one RDMA write
	ProcWriteBatch // gather write: many (off,len) segments, one RDMA read
)

// MaxBatchSegs bounds the segment list of one batch request so it fits a
// session message.
const MaxBatchSegs = 512

// MaxTransfer bounds the bytes one direct or batch request moves. The
// server stages a request's data whole, so a request over it gets
// StatusInval before any staging is allocated: 512 segments of 4 GiB
// would otherwise ask for 2 TiB. It is four times the largest single
// transfer anything in the repository issues (a 4 MiB WRITE_DIRECT).
const MaxTransfer = 16 << 20

// procNames is indexed by Proc; the gaps (0, anything past the last
// operation) are unnamed.
var procNames = [...]string{
	ProcConnect: "CONNECT", ProcDisconnect: "DISCONNECT",
	ProcLookup: "LOOKUP", ProcCreate: "CREATE", ProcRemove: "REMOVE",
	ProcGetattr: "GETATTR", ProcSetattr: "SETATTR",
	ProcRead: "READ", ProcWrite: "WRITE",
	ProcReadDirect: "READ_DIRECT", ProcWriteDirect: "WRITE_DIRECT",
	ProcAppend: "APPEND", ProcFsync: "FSYNC",
	ProcReadBatch: "READ_BATCH", ProcWriteBatch: "WRITE_BATCH",
}

// String names the operation. It runs several times per call with tracing
// off (span and flight-recorder labels), so it allocates nothing for a
// known operation.
func (pr Proc) String() string {
	if int(pr) < len(procNames) && procNames[pr] != "" {
		return procNames[pr]
	}
	return fmt.Sprintf("PROC(%d)", uint16(pr))
}

// Status is the per-operation result code carried in response headers.
type Status uint16

// Response statuses.
const (
	StatusOK Status = iota
	StatusNoEnt
	StatusExist
	StatusStale
	StatusInval
	StatusTooBig
	StatusIO
	StatusAccess
	StatusProto
)

// Errors corresponding to non-OK statuses.
var (
	ErrNoEnt   = errors.New("dafs: no such file")
	ErrExist   = errors.New("dafs: file exists")
	ErrStale   = errors.New("dafs: stale file handle")
	ErrInval   = errors.New("dafs: invalid argument")
	ErrTooBig  = errors.New("dafs: transfer exceeds inline limit")
	ErrIO      = errors.New("dafs: I/O error")
	ErrAccess  = errors.New("dafs: remote memory access denied")
	ErrProto   = errors.New("dafs: protocol error")
	ErrClosed  = errors.New("dafs: session closed")
	ErrSession = errors.New("dafs: session failure")
	// ErrTimeout marks a session failure caused by a per-call deadline
	// (Options.CallTimeout) expiring in simulated time; the session error
	// wraps both ErrSession and ErrTimeout so either sentinel matches.
	ErrTimeout = errors.New("dafs: call deadline exceeded")
	// ErrAllReplicasDown is wrapped by failover dispatchers (the striped
	// MPI-IO driver) when every replica of a stripe is unreachable and
	// session recovery has been exhausted.
	ErrAllReplicasDown = errors.New("dafs: all replicas down")
	// ErrStaleEpoch rejects a connect whose membership epoch
	// (Options.Epoch) predates the server's admission fence: the client's
	// view of the cluster is stale and must be refreshed before it may
	// open sessions to this server. The check runs in the out-of-band
	// connection phase (Server.accept), never mid-session — established
	// sessions drain naturally.
	ErrStaleEpoch = errors.New("dafs: stale membership epoch")
	// ErrDraining rejects a connect to a server being removed from the
	// cluster: existing sessions keep servicing, new ones are refused.
	ErrDraining = errors.New("dafs: server draining")
)

// Err maps a status to its error (nil for StatusOK).
func (s Status) Err() error {
	switch s {
	case StatusOK:
		return nil
	case StatusNoEnt:
		return ErrNoEnt
	case StatusExist:
		return ErrExist
	case StatusStale:
		return ErrStale
	case StatusInval:
		return ErrInval
	case StatusTooBig:
		return ErrTooBig
	case StatusIO:
		return ErrIO
	case StatusAccess:
		return ErrAccess
	default:
		return ErrProto
	}
}

// statusOf maps an error back to a wire status.
func statusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrNoEnt):
		return StatusNoEnt
	case errors.Is(err, ErrExist):
		return StatusExist
	case errors.Is(err, ErrStale):
		return StatusStale
	case errors.Is(err, ErrInval):
		return StatusInval
	case errors.Is(err, ErrTooBig):
		return StatusTooBig
	case errors.Is(err, ErrAccess):
		return StatusAccess
	case errors.Is(err, ErrIO):
		return StatusIO
	default:
		return StatusProto
	}
}

// FH is a file handle.
type FH uint64

// Attr carries file attributes.
type Attr struct {
	Size int64
}

const (
	headerMagic = 0xDAF5
	// HeaderLen is the fixed message header size on the wire.
	HeaderLen = 16
)

// Header is the fixed message header.
type Header struct {
	Proc    Proc
	XID     uint32
	Status  Status
	BodyLen uint32
}

// encodeHeader writes h into the first HeaderLen bytes of buf.
func encodeHeader(buf []byte, h Header) {
	binary.LittleEndian.PutUint16(buf[0:], headerMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(h.Proc))
	binary.LittleEndian.PutUint32(buf[4:], h.XID)
	binary.LittleEndian.PutUint16(buf[8:], uint16(h.Status))
	binary.LittleEndian.PutUint32(buf[10:], h.BodyLen)
	binary.LittleEndian.PutUint16(buf[14:], 0)
}

// decodeHeader parses and validates a message header.
func decodeHeader(buf []byte) (Header, error) {
	if len(buf) < HeaderLen {
		return Header{}, fmt.Errorf("%w: short header (%d)", ErrWire, len(buf))
	}
	if binary.LittleEndian.Uint16(buf[0:]) != headerMagic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrWire)
	}
	h := Header{
		Proc:    Proc(binary.LittleEndian.Uint16(buf[2:])),
		XID:     binary.LittleEndian.Uint32(buf[4:]),
		Status:  Status(binary.LittleEndian.Uint16(buf[8:])),
		BodyLen: binary.LittleEndian.Uint32(buf[10:]),
	}
	if int(h.BodyLen) > len(buf)-HeaderLen {
		return Header{}, fmt.Errorf("%w: body length %d exceeds message", ErrWire, h.BodyLen)
	}
	return h, nil
}
