package main

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// protobuf, profile.proto): just enough to count each span's samples by
// the layer they landed in.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// bucket is the layer a CPU sample is charged to.
type bucket int

const (
	// bucketParse and bucketEngine are the layers that run inside other
	// layers' calls.
	bucketParse bucket = iota
	bucketEngine
	// bucketOwn is every other layer: the span's own work.
	bucketOwn
	nBuckets
)

// bucketOf classifies a function's package. Packages that are not a
// layer (sqlast, faults, the runtime, the standard library) return
// false, so a sample is charged to the innermost layer that called them.
func bucketOf(pkg string) (bucket, bool) {
	switch {
	case pkg == "sqlancerpp/internal/sqlparse":
		return bucketParse, true
	case pkg == "sqlancerpp/internal/engine":
		return bucketEngine, true
	case pkg == "main", pkg == "sqlancerpp/perfbench",
		strings.HasPrefix(pkg, "sqlancerpp/internal/core/"):
		return bucketOwn, true
	}
	return 0, false
}

// packageOf extracts the package path from a symbol name such as
// "sqlancerpp/internal/engine.(*DB).run".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

type rawSample struct {
	locs   []uint64
	labels [][2]int64 // (key, value) string-table indexes
}

// spanSamples counts the samples of each span label by bucket. Samples
// outside any span, or with no layer frame, are not counted.
func spanSamples(gz []byte) ([nSpans][nBuckets]int, error) {
	var out [nSpans][nBuckets]int
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return out, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return out, err
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}
		locFuncs = map[uint64][]uint64{} // innermost inlined function first
		samples  []rawSample
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			s, err := parseSample(b)
			samples = append(samples, s)
			return err
		case 4: // location
			id, fns, err := parseLocation(b)
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	spanIdx := map[string]span{}
	for i, n := range spanNames {
		spanIdx[n] = span(i)
	}
	for _, s := range samples {
		sp, ok := span(-1), false
		for _, l := range s.labels {
			if str(l[0]) == "span" {
				sp, ok = spanIdx[str(l[1])]
			}
		}
		if !ok {
			continue
		}
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if b, isLayer := bucketOf(packageOf(str(funcName[fid]))); isLayer {
					out[sp][b]++
					break frames
				}
			}
		}
	}
	return out, nil
}

func parseSample(b []byte) (rawSample, error) {
	var s rawSample
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // location_id, packed or not
			if sub == nil {
				s.locs = append(s.locs, v)
				return nil
			}
			for len(sub) > 0 {
				x, n := binary.Uvarint(sub)
				if n <= 0 {
					return errors.New("bad packed location id")
				}
				s.locs = append(s.locs, x)
				sub = sub[n:]
			}
		case 3: // label
			var l [2]int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					l[num-1] = int64(v)
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		}
		return nil
	})
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1:
			id = v
		case 4: // line
			return fields(sub, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

// fields walks a protobuf message, passing varint fields as v and
// length-delimited fields as b (nil for varints).
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad length")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			buf = buf[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
