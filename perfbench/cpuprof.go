package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the ros/internal packages host CPU is attributed to;
// samples whose innermost ros/internal frame is in another package count as
// "other", as do samples with no ros/internal frame, except garbage
// collection workers, which count as "gc".
var cpuPackages = []string{
	"sim", "raid", "blockdev", "pagecache", "image", "udf", "olfs", "mv",
	"obs", "cluster", "writepath", "sched", "rack", "optical",
}

// attributeCPU decodes a gzipped pprof CPU profile and returns CPU
// nanoseconds per package: each sample goes to the innermost frame in
// ros/internal/<pkg>, so runtime frames (allocation, memmove, GC assist)
// fold into their caller.
func attributeCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples []pbSample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					s.values = pbAppendUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	name := func(fn uint64) string {
		if i := funcs[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		out[samplePackage(s.locs, locs, name)] += int64(s.values[len(s.values)-1])
	}
	return out, nil
}

type pbSample struct {
	locs   []uint64
	values []uint64
}

func samplePackage(stack []uint64, locs map[uint64][]uint64, name func(uint64) string) string {
	gc := false
	for _, l := range stack {
		for _, fn := range locs[l] {
			n := name(fn)
			if rest, ok := strings.CutPrefix(n, "ros/internal/"); ok {
				pkg := rest[:strings.IndexAny(rest+".", "./")]
				for _, p := range cpuPackages {
					if p == pkg {
						return pkg
					}
				}
				return "other"
			}
			if strings.HasPrefix(n, "runtime.gcBgMarkWorker") {
				gc = true
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// pbFields walks the top-level fields of one protobuf message, passing the
// varint value (wire types 0, 1, 5) or the payload (wire type 2).
func pbFields(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = pbVarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return fmt.Errorf("short fixed field")
			}
			for i := w - 1; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[w:]
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendUints appends one repeated-uint field occurrence: a single varint
// or, when payload is set, a packed run of varints.
func pbAppendUints(dst []uint64, v uint64, payload []byte) []uint64 {
	if payload == nil {
		return append(dst, v)
	}
	for len(payload) > 0 {
		x, n := pbVarint(payload)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		payload = payload[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
