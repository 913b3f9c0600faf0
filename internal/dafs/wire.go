package dafs

import "dafsio/internal/wire"

// The DAFS codec is the shared wire codec; these aliases keep protocol code
// terse.
type (
	wr = wire.Writer
	rd = wire.Reader
)

// ErrWire reports a malformed message.
var ErrWire = wire.ErrWire
