package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is billed layer by layer: each sample goes to the
// innermost anongeo/internal/<module> frame on its stack, so standard
// library work (maps, math, big-integer RSA, JSON) is charged to the
// layer that called it. geo is a value library every layer calls, so
// its frames are skipped in favour of their caller. Samples with no
// repository frame go to runtime when the goroutine is the runtime's
// own (GC workers, the scheduler) and to other otherwise (the HTTP
// client and server plumbing, the benchmark itself). Repository
// modules not in shareModules (core, fault, metrics, traffic, ...) are
// billed to other as well, so the shares sum to 100.

const repoPrefix = "anongeo/internal/"

// passThrough are repository modules whose samples belong to their
// caller.
var passThrough = map[string]bool{"geo": true}

// layerShares decodes a gzipped pprof CPU profile and returns each
// module's share of CPU time in percent.
func layerShares(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, m := range shareModules {
		known[m] = true
	}
	billed := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var names []string // leaf first
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				names = append(names, p.strs[p.funcName[fid]])
			}
		}
		layer := billTo(names)
		if !known[layer] {
			layer = "other"
		}
		billed[layer] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, m := range shareModules {
		shares[m] = 100 * ratio(billed[m], total)
	}
	return shares, nil
}

// billTo picks the layer a stack (leaf first) is charged to.
func billTo(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		pkg := fn[len(repoPrefix):]
		if i := strings.IndexByte(pkg, '.'); i >= 0 {
			pkg = pkg[:i]
		}
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
		if !passThrough[pkg] {
			return pkg
		}
	}
	// No repository frame: whose goroutine is it? The outermost frame
	// below runtime.goexit names the goroutine's entry function.
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == "runtime.goexit" {
			continue
		}
		if strings.HasPrefix(stack[i], "runtime.") || strings.HasPrefix(stack[i], "runtime/") {
			return "runtime"
		}
		break
	}
	return "other"
}

// profile is the part of a pprof profile the billing needs.
type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location → function ids, innermost first
	funcName map[uint64]int64    // function → string table index
	strs     []string
	valueIdx int
}

type profSample struct {
	locs  []uint64
	value float64
}

// parseProfile decodes the protobuf encoding of profile.proto
// (github.com/google/pprof/proto/profile.proto), keeping sample
// stacks, CPU values, locations, functions and the string table.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	var rawSamples [][]byte
	nTypes := 0
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			nTypes++
		case 2: // sample
			rawSamples = append(rawSamples, data)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A CPU profile has [samples/count, cpu/nanoseconds]; weigh by time.
	if nTypes > 1 {
		p.valueIdx = 1
	}
	for _, raw := range rawSamples {
		var s profSample
		var vals []uint64
		err := eachField(raw, func(n, wire int, v uint64, d []byte) error {
			var dst *[]uint64
			switch n {
			case 1:
				dst = &s.locs
			case 2:
				dst = &vals
			default:
				return nil
			}
			if wire == 0 {
				*dst = append(*dst, v)
				return nil
			}
			for len(d) > 0 { // packed
				x, k := binary.Uvarint(d)
				if k <= 0 {
					return errors.New("profile: bad packed varint")
				}
				*dst = append(*dst, x)
				d = d[k:]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if p.valueIdx < len(vals) {
			s.value = float64(int64(vals[p.valueIdx]))
		}
		p.samples = append(p.samples, s)
	}
	for _, name := range p.funcName {
		if name < 0 || int(name) >= len(p.strs) {
			return nil, errors.New("profile: function name out of string table")
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, k := binary.Uvarint(b)
		if k <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[k:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, k = binary.Uvarint(b)
			if k <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[k:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			n, k := binary.Uvarint(b)
			if k <= 0 || uint64(len(b)-k) < n {
				return errors.New("profile: bad length")
			}
			data = b[k : k+int(n)]
			b = b[k+int(n):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
