package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are this repository's modules as the traced run reports them.
// A CPU sample is charged to the innermost fibersim frame on its stack,
// so runtime work such as mallocgc goes to the module that asked for
// it; samples with no fibersim frame at all (background GC, the
// scheduler) are charged to gc.
var layers = []string{"numerics", "omp", "mpi", "core", "vtime", "obs", "common", "harness", "perfdb", "gc", "other"}

var layerOfPackage = map[string]string{
	"fibersim/internal/miniapps/common": "common",
	"fibersim/internal/omp":             "omp",
	"fibersim/internal/mpi":             "mpi",
	"fibersim/internal/simnet":          "mpi",
	"fibersim/internal/core":            "core",
	"fibersim/internal/vtime":           "vtime",
	"fibersim/internal/obs":             "obs",
	"fibersim/internal/harness":         "harness",
	"fibersim/internal/perfdb":          "perfdb",
}

// layerOf returns the layer of one function name as pprof spells it
// ("fibersim/internal/omp.(*Team).execute.func1"), or "" for code
// outside fibersim.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, "fibersim/") {
		return ""
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		pkg = fn[:slash+dot]
	}
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "fibersim/internal/miniapps/") {
		return "numerics"
	}
	return "other"
}

// attribute decodes a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and returns the CPU nanoseconds charged to each layer.
func attribute(profile []byte) (map[string]float64, error) {
	if len(profile) > 1 && profile[0] == 0x1f && profile[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(profile))
		if err != nil {
			return nil, err
		}
		if profile, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	var (
		strs       []string
		funcName   = map[uint64]int64{}    // function id -> string index
		locFuncs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples    [][]uint64              // location ids, leaf first
		values     [][]int64
		valueTypes []int64 // string index of each sample type
	)
	err := fields(profile, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					return varints(v, p, func(x uint64) { locs = append(locs, x) })
				case 2:
					return varints(v, p, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			samples, values = append(samples, locs), append(values, vals)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, p []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(p, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	// Charge CPU time when the profile carries it, else sample counts.
	vi := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			vi = i
		}
	}
	out := map[string]float64{}
	for s, locs := range samples {
		if vi < 0 || vi >= len(values[s]) {
			return nil, errors.New("cpu profile: sample without its value")
		}
		layer := "gc"
	stack:
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				if l := layerOf(str(funcName[fn])); l != "" {
					layer = l
					break stack
				}
			}
		}
		out[layer] += float64(values[s][vi])
	}
	return out, nil
}

// fields calls f for each field of a protobuf message: v holds a
// varint's value, b a length-delimited payload; fixed-width fields,
// which profiles do not use, are skipped.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: one
// value (packed is nil) or a packed run.
func varints(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
