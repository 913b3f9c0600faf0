package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A reader for the part of the pprof profile.proto encoding that a CPU
// profile's "where did the samples land" needs: samples (location ids and
// values), locations (lines), functions (name) and the string table. It
// exists so that folding a profile by package needs no module outside the
// standard library.

var errProto = errors.New("pprof: malformed profile")

// protoBuf walks one length-delimited protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		err = p.skip(4)
	default:
		err = errProto
	}
	return field, v, data, err
}

func (p *protoBuf) skip(n int) error {
	if len(p.b) < n {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints decodes a repeated integer field, packed or not.
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

// profile is the decoded subset.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost (inlined) first
	funcName map[uint64]uint64   // function id -> string index
	strings  []string
}

// parseProfile decodes a (gzipped or raw) profile.proto.
func parseProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	pr := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	top := protoBuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch field {
		case 2: // Sample
			var s profSample
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					s.values, err = uints(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			pr.samples = append(pr.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					line := protoBuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			pr.locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			pr.funcName[id] = name
		case 6: // string_table
			pr.strings = append(pr.strings, string(data))
		}
	}
	return pr, nil
}

// stack returns a sample's function names, leaf first.
func (pr *profile) stack(s profSample) []string {
	var names []string
	for _, loc := range s.locs {
		for _, fn := range pr.locFuncs[loc] {
			if idx := pr.funcName[fn]; idx < uint64(len(pr.strings)) {
				names = append(names, pr.strings[idx])
			}
		}
	}
	return names
}

const internalPrefix = "dafsio/internal/"

// packageOf attributes a stack to the innermost frame that belongs to a
// package under internal/ — so a memmove under storage.(*File).ensure counts
// for storage, and the scheduler parking a simulated process for sim. A
// stack with no such frame is the Go runtime's own work (collector,
// scheduler), unless the benchmark's own code is on it.
func packageOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if hostcpuPackages[pkg] {
				return pkg
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
	}
	return "runtime"
}

// packageShares folds a CPU profile into each package's share of the
// sampled CPU time (the last value of a CPU sample is nanoseconds).
func packageShares(raw []byte) (map[string]float64, error) {
	pr, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	weight := map[string]float64{}
	var total float64
	for _, s := range pr.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1])
		weight[packageOf(pr.stack(s))] += w
		total += w
	}
	shares := map[string]float64{}
	for pkg := range hostcpuPackages {
		shares[pkg] = 0
		if total > 0 {
			shares[pkg] = weight[pkg] / total
		}
	}
	return shares, nil
}
