package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// cpuSample is one CPU-profile sample: its call stack as function names,
// leaf first, and the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// internalPrefix marks the frames the fold attributes to a layer.
const internalPrefix = "catdb/internal/"

// layerOf names the layer a sample's CPU time belongs to: the package of
// the leaf-most catdb/internal/<pkg> frame, so standard-library and
// runtime frames (allocation, GC assists, sorting) count toward the
// internal caller that asked for them. A stack with no internal frame is
// "runtime" when every frame is the Go runtime's own (GC background
// workers, the scheduler) and "other" otherwise (the benchmark's harness
// and what it calls directly).
func layerOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, fn := range stack {
		if !isRuntimeFrame(fn) {
			return "other"
		}
	}
	return "runtime"
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || fn == ""
}

// foldLayers sums CPU seconds per layer.
func foldLayers(samples []cpuSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

// writeLayerTable writes the folded layers, largest first, with each
// layer's share of all sampled CPU time.
func writeLayerTable(w io.Writer, layers map[string]float64, ops int) error {
	names := make([]string, 0, len(layers))
	var total float64
	for n, v := range layers {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if layers[names[i]] != layers[names[j]] {
			return layers[names[i]] > layers[names[j]]
		}
		return names[i] < names[j]
	})
	if _, err := fmt.Fprintf(w, "%-12s %12s %8s %14s\n", "layer", "cpu_s", "share", "cpu_s_per_op"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-12s %12.4f %7.2f%% %14.6f\n", n, layers[n],
			100*ratio(layers[n], total), ratio(layers[n], float64(ops))); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-12s %12.4f %7.2f%% (ops=%d)\n", "total", total, 100.0, ops)
	return err
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes into samples carrying their CPU nanoseconds. Inlined frames are
// expanded, so a function the compiler inlined still owns its samples.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct{ locs, vals []uint64 }
	var (
		strs       []string
		valueUnits []int64 // string index of each sample value's unit
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames  = map[uint64]int64{}    // function id → name string index
	)
	err = pbWalk(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return pbWalk(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 2 {
					valueUnits = append(valueUnits, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := pbWalk(b, func(n, w int, v uint64, b []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = pbAppendInts(s.locs, w, v, b)
				case 2:
					s.vals, err = pbAppendInts(s.vals, w, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbWalk(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbWalk(b, func(n, _ int, v uint64, _ []byte) error {
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
			err := pbWalk(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	nanosAt := -1
	for i, u := range valueUnits {
		if u >= 0 && int(u) < len(strs) && strs[u] == "nanoseconds" {
			nanosAt = i
		}
	}
	if nanosAt < 0 {
		return nil, errors.New("cpu profile: no nanoseconds sample value")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if nanosAt >= len(s.vals) {
			return nil, errors.New("cpu profile: sample without a nanoseconds value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := ""
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				stack = append(stack, name)
			}
		}
		out = append(out, cpuSample{stack: stack, nanos: int64(s.vals[nanosAt])})
	}
	return out, nil
}

// pbWalk calls fn for each field of a protobuf message: v carries varint
// and fixed-width values, b the bytes of length-delimited ones.
func pbWalk(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbAppendInts appends a repeated varint field, packed or not.
func pbAppendInts(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
