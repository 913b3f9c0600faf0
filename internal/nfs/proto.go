// Package nfs implements the baseline the paper compares against: an
// NFSv3-like file protocol over ONC-RPC-style messages on the simulated
// kernel UDP path (package kstack).
//
// Client-side caching is disabled (the "noac" mount every MPI-IO-over-NFS
// deployment requires for consistency — ROMIO documents exactly this), so
// every operation goes to the server. Reads and writes are limited to the
// mount's rsize/wsize per RPC; larger transfers issue pipelined RPCs.
package nfs

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dafsio/internal/kstack"
	"dafsio/internal/wire"
)

// Proc identifies an RPC procedure.
type Proc uint16

// NFS procedures (v3-flavored subset).
const (
	ProcNull Proc = iota
	ProcGetattr
	ProcSetattr
	ProcLookup
	ProcCreate
	ProcRemove
	ProcRead
	ProcWrite
	ProcCommit
)

// String names the procedure.
func (pr Proc) String() string {
	names := [...]string{"NULL", "GETATTR", "SETATTR", "LOOKUP", "CREATE",
		"REMOVE", "READ", "WRITE", "COMMIT"}
	if int(pr) < len(names) {
		return names[pr]
	}
	return fmt.Sprintf("PROC(%d)", uint16(pr))
}

// Status is the NFS result code.
type Status uint16

// Result codes (numbers chosen for readability, not v3 wire equality).
const (
	OK Status = iota
	ErrsNoEnt
	ErrsExist
	ErrsStale
	ErrsInval
	ErrsIO
	ErrsProto
)

// Errors corresponding to statuses.
var (
	ErrNoEnt  = errors.New("nfs: no such file")
	ErrExist  = errors.New("nfs: file exists")
	ErrStale  = errors.New("nfs: stale file handle")
	ErrInval  = errors.New("nfs: invalid argument")
	ErrIO     = errors.New("nfs: I/O error")
	ErrProto  = errors.New("nfs: protocol error")
	ErrClosed = errors.New("nfs: client closed")
)

// Err maps a status to an error (nil for OK).
func (s Status) Err() error {
	switch s {
	case OK:
		return nil
	case ErrsNoEnt:
		return ErrNoEnt
	case ErrsExist:
		return ErrExist
	case ErrsStale:
		return ErrStale
	case ErrsInval:
		return ErrInval
	case ErrsIO:
		return ErrIO
	default:
		return ErrProto
	}
}

// FH is an NFS file handle.
type FH uint64

// Attr carries file attributes.
type Attr struct {
	Size int64
}

const (
	rpcMagic = 0x4E46
	// rpcHeaderLen is the RPC message header size.
	rpcHeaderLen = 12
)

// msgBufs recycles the MaxDatagram-sized buffers RPC messages live in. An
// outgoing message's buffer is in use from its encode until SendTo returns,
// by when the stack has copied it into packets. An incoming one is what
// RecvFrom copied the datagram into; it is in use until the message is
// decoded: by the server worker that handles the request, or by Call.wait
// for a reply. Several procs hold buffers at once, so this is a stack of
// idle buffers rather than one scratch buffer.
type msgBufs [][]byte

func (m *msgBufs) get() []byte {
	if n := len(*m); n > 0 {
		b := (*m)[n-1]
		*m = (*m)[:n-1]
		return b
	}
	return make([]byte, kstack.MaxDatagram)
}

// put takes back a buffer, or any slice of one that starts at its head.
func (m *msgBufs) put(b []byte) { *m = append(*m, b[:cap(b)]) }

type rpcHeader struct {
	Proc   Proc
	XID    uint32
	Status Status
}

func encodeRPC(buf []byte, h rpcHeader) {
	binary.LittleEndian.PutUint16(buf[0:], rpcMagic)
	binary.LittleEndian.PutUint16(buf[2:], uint16(h.Proc))
	binary.LittleEndian.PutUint32(buf[4:], h.XID)
	binary.LittleEndian.PutUint16(buf[8:], uint16(h.Status))
	binary.LittleEndian.PutUint16(buf[10:], 0)
}

func decodeRPC(buf []byte) (rpcHeader, []byte, error) {
	if len(buf) < rpcHeaderLen {
		return rpcHeader{}, nil, fmt.Errorf("%w: short RPC header", wire.ErrWire)
	}
	if binary.LittleEndian.Uint16(buf[0:]) != rpcMagic {
		return rpcHeader{}, nil, fmt.Errorf("%w: bad RPC magic", wire.ErrWire)
	}
	h := rpcHeader{
		Proc:   Proc(binary.LittleEndian.Uint16(buf[2:])),
		XID:    binary.LittleEndian.Uint32(buf[4:]),
		Status: Status(binary.LittleEndian.Uint16(buf[8:])),
	}
	return h, buf[rpcHeaderLen:], nil
}
